package mci

import (
	"fmt"
	"testing"

	"nektarg/internal/mpi"
	"nektarg/internal/telemetry"
)

// relayedSubtreeEntries returns the total number of payload entries carried
// by all messages of a binomial gather (or scatter) tree over n ranks rooted
// at virtual rank 0: each non-root virtual rank vr forwards its subtree of
// min(lowbit(vr), n-vr) entries exactly once.
func relayedSubtreeEntries(n int) int {
	total := 0
	for vr := 1; vr < n; vr++ {
		low := vr & -vr
		if low > n-vr {
			low = n - vr
		}
		total += low
	}
	return total
}

// TestExchangeTrafficMatchesAnalyticCount runs the paper's 3-step interface
// exchange (Figure 4) under telemetry and checks the recorded message/byte
// counts against the closed-form cost of the binomial gather/scatter trees
// and the root-to-root swap:
//
//	gather:  n-1 messages, T*(8+8m) bytes   (T = relayed subtree entries,
//	                                         8-byte rank header per entry)
//	swap:    1 message of 8*n*m bytes per side, on World's reserved band
//	scatter: n-1 messages, T*8m bytes
//
// per side, with n = 4 members per group and m = 3 floats per member.
func TestExchangeTrafficMatchesAnalyticCount(t *testing.T) {
	const (
		P = 8 // two tasks x 4 ranks
		n = 4 // L4 members per side
		m = 3 // floats contributed per member
	)
	cfg := Config{Tasks: []TaskSpec{{"patchA", n}, {"patchB", n}}}
	reg := telemetry.NewRegistry()
	recs := make([]*telemetry.Recorder, P)
	err := mpi.Run(P, func(w *mpi.Comm) {
		rec := reg.NewRecorder(fmt.Sprintf("rank%d", w.Rank()))
		recs[w.Rank()] = rec
		w.AttachTelemetry(rec) // before Build: splits inherit the recorder
		h, err := Build(w, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		ig, err := NewInterfaceGroup(h, "iface", true)
		if err != nil {
			t.Error(err)
			return
		}
		// Discard setup traffic (splits, allreduce) so the assertion sees
		// exactly one 3-step exchange.
		rec.ResetCounters()

		peerRoot := 0
		if h.Task == 0 {
			peerRoot = n // task B's range starts at rank n
		}
		local := make([]float64, m)
		for i := range local {
			local[i] = float64(w.Rank())
		}
		counts := make([]int, n)
		for i := range counts {
			counts[i] = m
		}
		got := ig.Exchange(w, peerRoot, ig.Salt(), local, counts)

		// Correctness: L4 rank k receives the peer's k-th member trace,
		// and the peer task's ranks start at its root rank.
		want := float64(peerRoot + ig.L4.Rank())
		if len(got) != m {
			t.Errorf("rank %d received %d values, want %d", w.Rank(), len(got), m)
		}
		for _, v := range got {
			if v != want {
				t.Errorf("rank %d received %v, want %v", w.Rank(), got, want)
				break
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every rank has returned, so nothing moves after these snapshots.
	cs := telemetry.AggregateRecorders(recs)

	T := int64(relayedSubtreeEntries(n))
	// Two sides, each one gather + one scatter over its L4 group.
	wantGather := telemetry.Traffic{Msgs: 2 * (n - 1), Bytes: 2 * T * (8 + 8*m)}
	wantScatter := telemetry.Traffic{Msgs: 2 * (n - 1), Bytes: 2 * T * 8 * m}
	wantCoupling := telemetry.Traffic{Msgs: 2, Bytes: 2 * 8 * n * m}

	if g := cs.Traffic[telemetry.LevelL4][telemetry.OpGather]; g != wantGather {
		t.Errorf("L4 gather traffic = %+v, want %+v", g, wantGather)
	}
	if s := cs.Traffic[telemetry.LevelL4][telemetry.OpScatter]; s != wantScatter {
		t.Errorf("L4 scatter traffic = %+v, want %+v", s, wantScatter)
	}
	if c := cs.Traffic[telemetry.LevelWorld][telemetry.OpCoupling]; c != wantCoupling {
		t.Errorf("World coupling traffic = %+v, want %+v", c, wantCoupling)
	}
	// Nothing else should have moved during the exchange.
	tot := cs.Traffic.Total()
	sum := telemetry.Traffic{
		Msgs:  wantGather.Msgs + wantScatter.Msgs + wantCoupling.Msgs,
		Bytes: wantGather.Bytes + wantScatter.Bytes + wantCoupling.Bytes,
	}
	if tot != sum {
		t.Errorf("total traffic = %+v, want exactly the 3-step volume %+v", tot, sum)
	}

	// The mci.* spans landed on every participating recorder.
	for stage, want := range map[string]int64{
		"mci.exchange":     P,
		"mci.gather":       P,
		"mci.scatter":      P,
		"mci.rootexchange": 2,
	} {
		st := cs.Stage(stage)
		if st == nil || st.Count != want {
			t.Errorf("stage %s = %+v, want count %d", stage, st, want)
		}
	}
}

// TestExchangeUncountedWithoutRecorder: the same exchange with telemetry
// detached must not panic and must leave no counters anywhere (nil-sink
// path through mpi and mci).
func TestExchangeUncountedWithoutRecorder(t *testing.T) {
	const n = 2
	cfg := Config{Tasks: []TaskSpec{{"a", n}, {"b", n}}}
	err := mpi.Run(2*n, func(w *mpi.Comm) {
		h, err := Build(w, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		ig, err := NewInterfaceGroup(h, "iface", true)
		if err != nil {
			t.Error(err)
			return
		}
		peerRoot := 0
		if h.Task == 0 {
			peerRoot = n
		}
		got := ig.Exchange(w, peerRoot, ig.Salt(), []float64{1}, []int{1, 1})
		if len(got) != 1 {
			t.Errorf("rank %d got %v", w.Rank(), got)
		}
		if w.Telemetry() != nil {
			t.Errorf("rank %d has a recorder it never attached", w.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
