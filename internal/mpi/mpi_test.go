package mpi

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestSendRecvBasic(t *testing.T) {
	err := Run(2, func(w *Comm) {
		if w.Rank() == 0 {
			w.Send(1, 7, 42)
		} else {
			if got := w.Recv(0, 7).(int); got != 42 {
				t.Errorf("got %d", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvTagMatching(t *testing.T) {
	// Messages with different tags must be matched by tag, not arrival order.
	err := Run(2, func(w *Comm) {
		if w.Rank() == 0 {
			w.Send(1, 1, "tag1")
			w.Send(1, 2, "tag2")
		} else {
			if got := w.Recv(0, 2).(string); got != "tag2" {
				t.Errorf("tag 2 got %q", got)
			}
			if got := w.Recv(0, 1).(string); got != "tag1" {
				t.Errorf("tag 1 got %q", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvFIFOPerPair(t *testing.T) {
	const n = 100
	err := Run(2, func(w *Comm) {
		if w.Rank() == 0 {
			for i := 0; i < n; i++ {
				w.Send(1, 0, i)
			}
		} else {
			for i := 0; i < n; i++ {
				if got := w.Recv(0, 0).(int); got != i {
					t.Errorf("out of order: want %d got %d", i, got)
					return
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnySource(t *testing.T) {
	err := Run(4, func(w *Comm) {
		if w.Rank() == 0 {
			seen := map[int]bool{}
			for i := 0; i < 3; i++ {
				src := w.Recv(AnySource, 5).(int) // each sender sends its rank
				seen[src] = true
			}
			if len(seen) != 3 {
				t.Errorf("saw %v", seen)
			}
		} else {
			w.Send(0, 5, w.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierOrdering(t *testing.T) {
	var before, after int32
	err := Run(8, func(w *Comm) {
		atomic.AddInt32(&before, 1)
		w.Barrier()
		if atomic.LoadInt32(&before) != 8 {
			t.Error("barrier released before all ranks entered")
		}
		atomic.AddInt32(&after, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if after != 8 {
		t.Fatalf("after = %d", after)
	}
}

func TestBcast(t *testing.T) {
	err := Run(5, func(w *Comm) {
		var payload any
		if w.Rank() == 2 {
			payload = []float64{1, 2, 3}
		}
		got := w.Bcast(2, payload).([]float64)
		if len(got) != 3 || got[0] != 1 || got[2] != 3 {
			t.Errorf("rank %d got %v", w.Rank(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherOrdersByRank(t *testing.T) {
	err := Run(6, func(w *Comm) {
		out := w.Gather(3, w.Rank()*10)
		if w.Rank() == 3 {
			for i, v := range out {
				if v.(int) != i*10 {
					t.Errorf("out[%d] = %v", i, v)
				}
			}
		} else if out != nil {
			t.Errorf("non-root got %v", out)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScatter(t *testing.T) {
	err := Run(4, func(w *Comm) {
		var parts []any
		if w.Rank() == 0 {
			parts = []any{"a", "b", "c", "d"}
		}
		got := w.Scatter(0, parts).(string)
		want := string(rune('a' + w.Rank()))
		if got != want {
			t.Errorf("rank %d got %q want %q", w.Rank(), got, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceSumMatchesSequential(t *testing.T) {
	f := func(seed int64, sizeRaw uint8) bool {
		size := int(sizeRaw%7) + 1
		n := 5
		rng := rand.New(rand.NewSource(seed))
		inputs := make([][]float64, size)
		want := make([]float64, n)
		for r := range inputs {
			inputs[r] = make([]float64, n)
			for i := range inputs[r] {
				inputs[r][i] = rng.NormFloat64()
				want[i] += inputs[r][i]
			}
		}
		ok := true
		err := Run(size, func(w *Comm) {
			got := w.Allreduce(inputs[w.Rank()], Sum)
			for i := range got {
				d := got[i] - want[i]
				if d > 1e-9 || d < -1e-9 {
					ok = false
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	err := Run(5, func(w *Comm) {
		v := []float64{float64(w.Rank())}
		if got := w.Allreduce(v, Max)[0]; got != 4 {
			t.Errorf("max = %v", got)
		}
		if got := w.Allreduce(v, Min)[0]; got != 0 {
			t.Errorf("min = %v", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitPartitionsRanksExactly(t *testing.T) {
	// 12 ranks split into 3 colors of 4; each sub-communicator must have
	// size 4 with ranks 0..3 keyed by reversed world order.
	err := Run(12, func(w *Comm) {
		color := w.Rank() % 3
		key := -w.Rank() // reverse order within each color
		sub := w.Split(color, key, "L3")
		if sub == nil {
			t.Error("unexpected nil sub-communicator")
			return
		}
		if sub.Size() != 4 {
			t.Errorf("sub size = %d", sub.Size())
		}
		// Highest world rank of the color gets sub-rank 0.
		wantRank := (9 + color - w.Rank()) / 3
		if sub.Rank() != wantRank {
			t.Errorf("world %d color %d: sub rank %d want %d", w.Rank(), color, sub.Rank(), wantRank)
		}
		// The sub-communicator must be functional.
		sum := sub.Allreduce([]float64{1}, Sum)
		if sum[0] != 4 {
			t.Errorf("sub allreduce = %v", sum[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitUndefinedColor(t *testing.T) {
	err := Run(4, func(w *Comm) {
		color := -1
		if w.Rank() < 2 {
			color = 0
		}
		sub := w.Split(color, w.Rank(), "half")
		if w.Rank() < 2 {
			if sub == nil || sub.Size() != 2 {
				t.Errorf("rank %d: bad sub %v", w.Rank(), sub)
			}
		} else if sub != nil {
			t.Errorf("rank %d: expected nil, got size %d", w.Rank(), sub.Size())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNestedSplitIsolation(t *testing.T) {
	// Traffic on a sub-communicator must not interfere with the parent:
	// same tags, different comms.
	err := Run(4, func(w *Comm) {
		sub := w.Split(w.Rank()/2, w.Rank(), "pair")
		if w.Rank()%2 == 0 {
			w.Send((w.Rank()+2)%4, 9, "world")
			sub.Send(1, 9, "sub")
		} else {
			if got := sub.Recv(0, 9).(string); got != "sub" {
				t.Errorf("sub got %q", got)
			}
		}
		if w.Rank()%2 == 0 {
			if got := w.Recv(AnySource, 9).(string); got != "world" {
				t.Errorf("world got %q", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRandomTrafficNoDeadlock(t *testing.T) {
	// Property: arbitrary eager send patterns with matching receives drain
	// completely. Each rank sends a random number of messages to random
	// peers, then receives exactly what it was sent (counts exchanged via
	// Allreduce).
	f := func(seed int64) bool {
		const size = 6
		rng := rand.New(rand.NewSource(seed))
		counts := make([][]int, size) // counts[src][dst]
		for s := range counts {
			counts[s] = make([]int, size)
			for d := range counts[s] {
				if d != s {
					counts[s][d] = rng.Intn(5)
				}
			}
		}
		err := Run(size, func(w *Comm) {
			me := w.Rank()
			for d := 0; d < size; d++ {
				for k := 0; k < counts[me][d]; k++ {
					w.Send(d, 3, k)
				}
			}
			for s := 0; s < size; s++ {
				for k := 0; k < counts[s][me]; k++ {
					if got := w.Recv(s, 3).(int); got != k {
						panic("FIFO violated")
					}
				}
			}
		})
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	err := Run(2, func(w *Comm) {
		if w.Rank() == 1 {
			panic("boom")
		}
	})
	if err == nil {
		t.Fatal("expected error from panicking rank")
	}
}

func TestNegativeUserTagPanics(t *testing.T) {
	err := Run(1, func(w *Comm) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for negative tag")
			}
		}()
		w.Send(0, -3, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommName(t *testing.T) {
	err := Run(2, func(w *Comm) {
		if w.Name() != "world" {
			t.Errorf("name = %q", w.Name())
		}
		sub := w.Split(0, w.Rank(), "L2")
		if sub.Name() != "world/L2.0" {
			t.Errorf("sub name = %q", sub.Name())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMixedCollectiveSequenceNoCrosstalk(t *testing.T) {
	// Interleaving many collective kinds must not cross wires (tag packing
	// regression test).
	err := Run(3, func(w *Comm) {
		for round := 0; round < 20; round++ {
			w.Barrier()
			s := w.Allreduce([]float64{1}, Sum)
			if s[0] != 3 {
				t.Errorf("round %d: allreduce %v", round, s[0])
				return
			}
			g := w.Gather(0, w.Rank())
			if w.Rank() == 0 && g[2].(int) != 2 {
				t.Errorf("round %d: gather %v", round, g)
				return
			}
			got := w.Bcast(1, func() any {
				if w.Rank() == 1 {
					return round
				}
				return nil
			}()).(int)
			if got != round {
				t.Errorf("round %d: bcast %v", round, got)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
