package mpi

import (
	"fmt"
	"testing"

	"nektarg/internal/telemetry"
)

func TestLevelFromName(t *testing.T) {
	cases := []struct {
		name string
		want telemetry.Level
	}{
		{"world", telemetry.LevelWorld},
		{"world/L2.0", telemetry.LevelL2},
		{"world/L3.1", telemetry.LevelL3},
		{"world/L3.1/L4:inlet.0", telemetry.LevelL4},
		{"custom", telemetry.LevelOther},
	}
	for _, c := range cases {
		if got := levelFromName(c.name); got != c.want {
			t.Errorf("levelFromName(%q) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestOpForTag(t *testing.T) {
	// Collective tags are -(seq*16 + op); check a couple of sequence values.
	for _, seq := range []int{1, 7} {
		cases := []struct {
			op   int
			want telemetry.Op
		}{
			{opBarrier, telemetry.OpBarrier},
			{opBcast, telemetry.OpBcast},
			{opGather, telemetry.OpGather},
			{opScatter, telemetry.OpScatter},
			{opAllreduce, telemetry.OpAllreduce},
		}
		for _, c := range cases {
			if got := opForTag(-(seq*16 + c.op)); got != c.want {
				t.Errorf("opForTag(seq=%d, op=%d) = %v, want %v", seq, c.op, got, c.want)
			}
		}
	}
	if got := opForTag(5); got != telemetry.OpP2P {
		t.Errorf("user tag = %v, want p2p", got)
	}
	if got := opForTag(ReservedTagBase + 17); got != telemetry.OpCoupling {
		t.Errorf("reserved tag = %v, want coupling", got)
	}
}

// TestSendCountsAtSender pins the count-once-at-the-sender rule for plain
// point-to-point traffic.
func TestSendCountsAtSender(t *testing.T) {
	reg := telemetry.NewRegistry()
	err := Run(2, func(w *Comm) {
		rec := reg.NewRecorder(fmt.Sprintf("rank%d", w.Rank()))
		w.AttachTelemetry(rec)
		if w.Rank() == 0 {
			w.Send(1, 3, []float64{1, 2, 3, 4, 5})
			s := rec.Snapshot()
			if got := s.Traffic[telemetry.LevelWorld][telemetry.OpP2P]; got.Msgs != 1 || got.Bytes != 40 {
				t.Errorf("sender traffic = %+v, want {1 40}", got)
			}
		} else {
			w.Recv(0, 3)
			s := rec.Snapshot()
			if got := s.Traffic.Total(); got.Msgs != 0 {
				t.Errorf("receiver counted %+v; messages must be counted at the sender only", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBcastTrafficAttribution checks that every tree hop of a collective is
// attributed to the collective's op: a binomial Bcast over P ranks moves
// exactly P-1 messages of the full payload each.
func TestBcastTrafficAttribution(t *testing.T) {
	const P = 8
	const n = 11 // floats per payload
	reg := telemetry.NewRegistry()
	err := Run(P, func(w *Comm) {
		rec := reg.NewRecorder(fmt.Sprintf("rank%d", w.Rank()))
		w.AttachTelemetry(rec)
		var data []float64
		if w.Rank() == 2 {
			data = make([]float64, n)
		}
		got := w.Bcast(2, data).([]float64)
		if len(got) != n {
			t.Errorf("rank %d bcast len %d", w.Rank(), len(got))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	cs := telemetry.AggregateRecorders(reg.Recorders())
	b := cs.Traffic[telemetry.LevelWorld][telemetry.OpBcast]
	if b.Msgs != P-1 {
		t.Fatalf("bcast msgs = %d, want %d", b.Msgs, P-1)
	}
	if b.Bytes != int64(P-1)*8*n {
		t.Fatalf("bcast bytes = %d, want %d", b.Bytes, (P-1)*8*n)
	}
}

// TestSplitInheritsRecorderAndLevel checks that derived communicators carry
// the parent's recorder and classify their traffic by the MCI naming scheme.
func TestSplitInheritsRecorderAndLevel(t *testing.T) {
	reg := telemetry.NewRegistry()
	err := Run(4, func(w *Comm) {
		rec := reg.NewRecorder(fmt.Sprintf("rank%d", w.Rank()))
		w.AttachTelemetry(rec)
		l2 := w.Split(w.Rank()%2, w.Rank(), "L2")
		rec.ResetCounters() // discard the Split's own gather/scatter traffic
		if l2.Telemetry() != rec {
			t.Errorf("rank %d: split did not inherit the recorder", w.Rank())
		}
		// A send on the derived comm must land in the L2 bucket.
		peer := 1 - l2.Rank()
		l2.Send(peer, 0, []float64{1})
		l2.Recv(peer, 0)
		s := rec.Snapshot()
		if got := s.Traffic[telemetry.LevelL2][telemetry.OpP2P]; got.Msgs != 1 || got.Bytes != 8 {
			t.Errorf("rank %d: L2 traffic = %+v, want {1 8}", w.Rank(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
