package mpi

// Tests for the scalable collective algorithms: non-power-of-two rank
// sweeps (the recursive-doubling fold-in and uneven tree shapes), payload
// ownership (every rank may mutate what a collective returned — run with
// -race to catch aliasing regressions), AnySource FIFO ordering, and the
// reserved tag band.

import (
	"math"
	"strings"
	"testing"
)

// nonPow2Sizes exercises the fold-in step of recursive doubling and ragged
// binomial trees. 12 = 8+4 also covers a two-level remainder.
var nonPow2Sizes = []int{3, 5, 7, 12}

func TestCollectivesNonPowerOfTwoSweep(t *testing.T) {
	for _, size := range nonPow2Sizes {
		size := size
		for root := 0; root < size; root += 2 {
			err := Run(size, func(w *Comm) {
				// Barrier.
				w.Barrier()

				// Bcast from root.
				var payload any
				if w.Rank() == root {
					payload = []float64{float64(root), 1, 2}
				}
				got := w.Bcast(root, payload).([]float64)
				if len(got) != 3 || got[0] != float64(root) || got[2] != 2 {
					t.Errorf("P=%d root=%d rank=%d: bcast %v", size, root, w.Rank(), got)
				}

				// Gather to root, ordered by rank.
				g := w.Gather(root, w.Rank()*7)
				if w.Rank() == root {
					for i, v := range g {
						if v.(int) != i*7 {
							t.Errorf("P=%d root=%d: gather[%d] = %v", size, root, i, v)
						}
					}
				} else if g != nil {
					t.Errorf("P=%d root=%d rank=%d: non-root gather %v", size, root, w.Rank(), g)
				}

				// Scatter from root.
				var parts []any
				if w.Rank() == root {
					parts = make([]any, size)
					for i := range parts {
						parts[i] = []float64{float64(100 + i)}
					}
				}
				sc := w.Scatter(root, parts).([]float64)
				if len(sc) != 1 || sc[0] != float64(100+w.Rank()) {
					t.Errorf("P=%d root=%d rank=%d: scatter %v", size, root, w.Rank(), sc)
				}

				// Allreduce sum, max, min.
				ar := w.Allreduce([]float64{float64(w.Rank()), 1}, Sum)
				if ar[0] != float64(size*(size-1))/2 || ar[1] != float64(size) {
					t.Errorf("P=%d rank=%d: allreduce sum %v", size, w.Rank(), ar)
				}
				if mx := w.Allreduce([]float64{float64(w.Rank())}, Max)[0]; mx != float64(size-1) {
					t.Errorf("P=%d rank=%d: allreduce max %v", size, w.Rank(), mx)
				}
				if mn := w.AllreduceInt([]int{w.Rank() + 3}, MinInt)[0]; mn != 3 {
					t.Errorf("P=%d rank=%d: allreduceInt min %v", size, w.Rank(), mn)
				}

				// Split into even/odd with reversed keys.
				sub := w.Split(w.Rank()%2, -w.Rank(), "half")
				wantSize := (size + 1 - w.Rank()%2) / 2
				if sub.Size() != wantSize {
					t.Errorf("P=%d rank=%d: split size %d want %d", size, w.Rank(), sub.Size(), wantSize)
				}
				s := sub.Allreduce([]float64{1}, Sum)
				if s[0] != float64(wantSize) {
					t.Errorf("P=%d rank=%d: sub allreduce %v", size, w.Rank(), s[0])
				}
			})
			if err != nil {
				t.Fatalf("P=%d root=%d: %v", size, root, err)
			}
		}
	}
}

// TestBcastReceiversOwnBuffers mutates the broadcast buffer on every
// receiving rank. Against the seed implementation (one shared slice sent to
// everyone) this is a data race and corrupts peers; the binomial tree hands
// each rank an independent copy. Run with -race.
func TestBcastReceiversOwnBuffers(t *testing.T) {
	for _, size := range []int{4, 7} {
		orig := []float64{10, 20, 30}
		err := Run(size, func(w *Comm) {
			var payload any
			if w.Rank() == 0 {
				payload = append([]float64(nil), orig...)
			}
			got := w.Bcast(0, payload).([]float64)
			if w.Rank() != 0 {
				// Every receiver scribbles its rank over the whole buffer.
				for i := range got {
					got[i] = float64(w.Rank())
				}
			}
			w.Barrier()
			if w.Rank() == 0 {
				for i, v := range got {
					if v != orig[i] {
						t.Errorf("root buffer corrupted by receivers: %v", got)
						return
					}
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestAllreduceResultsAreIndependent mutates every rank's allreduce result,
// then reduces again: with the seed implementation all ranks shared rank 0's
// accumulator, so the scribbles raced and the second reduction saw garbage.
func TestAllreduceResultsAreIndependent(t *testing.T) {
	for _, size := range []int{4, 5, 12} {
		err := Run(size, func(w *Comm) {
			got := w.Allreduce([]float64{1, 2}, Sum)
			if got[0] != float64(size) || got[1] != 2*float64(size) {
				t.Errorf("P=%d rank=%d: allreduce %v", size, w.Rank(), got)
			}
			got[0] = float64(-w.Rank()) // scribble on the result
			got[1] = math.NaN()
			again := w.Allreduce([]float64{3}, Sum)
			if again[0] != 3*float64(size) {
				t.Errorf("P=%d rank=%d: second allreduce %v", size, w.Rank(), again[0])
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestScatterPartsAreIndependent scatters sub-slices of one backing array —
// the exact pattern mci.ScatterFromRoot uses — and mutates every received
// part. The seed implementation handed out aliases into the root's backing
// array, so the scribbles showed through (and raced).
func TestScatterPartsAreIndependent(t *testing.T) {
	for _, size := range []int{4, 5, 7} {
		err := Run(size, func(w *Comm) {
			const per = 3
			var backing []float64
			var parts []any
			if w.Rank() == 0 {
				backing = make([]float64, size*per)
				for i := range backing {
					backing[i] = float64(i)
				}
				parts = make([]any, size)
				for i := 0; i < size; i++ {
					parts[i] = backing[i*per : (i+1)*per]
				}
			}
			got := w.Scatter(0, parts).([]float64)
			for j := 0; j < per; j++ {
				if got[j] != float64(w.Rank()*per+j) {
					t.Errorf("P=%d rank=%d: scatter %v", size, w.Rank(), got)
					return
				}
				got[j] = -1 // scribble; must not reach the root's backing array
			}
			w.Barrier()
			if w.Rank() == 0 {
				for i, v := range backing {
					if v != float64(i) {
						t.Errorf("P=%d: root backing array corrupted at %d: %v", size, i, v)
						return
					}
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestAnySourceFIFOOrdering: messages from one source must be received in
// send order even when matched via AnySource, interleaved with other
// sources. Each payload carries its sender and sequence number.
func TestAnySourceFIFOOrdering(t *testing.T) {
	const (
		size = 5
		n    = 50
	)
	err := Run(size, func(w *Comm) {
		if w.Rank() == 0 {
			last := map[int]int{}
			for i := 0; i < (size-1)*n; i++ {
				msg := w.Recv(AnySource, 4).([2]int)
				src, seq := msg[0], msg[1]
				if prev, ok := last[src]; ok && seq != prev+1 {
					t.Errorf("source %d: got seq %d after %d", src, seq, prev)
					return
				}
				last[src] = seq
			}
			for src, seq := range last {
				if seq != n-1 {
					t.Errorf("source %d: final seq %d", src, seq)
				}
			}
		} else {
			for i := 0; i < n; i++ {
				w.Send(0, 4, [2]int{w.Rank(), i})
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceIntExact(t *testing.T) {
	// 2^53+1 is not representable in float64 — the old float64 detour would
	// silently round it. Integer reductions must carry it exactly.
	big := (1 << 53) + 1
	err := Run(6, func(w *Comm) {
		local := 0
		if w.Rank() == 3 {
			local = big
		}
		if got := w.AllreduceInt([]int{local}, MaxInt)[0]; got != big {
			t.Errorf("rank %d: allreduceInt max = %d, want %d", w.Rank(), got, big)
		}
		if got := w.AllreduceInt([]int{local, 1}, SumInt); got[0] != big || got[1] != 6 {
			t.Errorf("rank %d: allreduceInt sum = %v, want [%d 6]", w.Rank(), got, big)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunAggregatesAllRankPanics(t *testing.T) {
	err := Run(4, func(w *Comm) {
		if w.Rank()%2 == 1 {
			panic(w.Rank() * 11)
		}
	})
	if err == nil {
		t.Fatal("expected error from panicking ranks")
	}
	msg := err.Error()
	for _, want := range []string{"rank 1", "rank 3", "11", "33"} {
		if !strings.Contains(msg, want) {
			t.Errorf("aggregated error missing %q: %v", want, msg)
		}
	}
	if strings.Contains(msg, "rank 0") || strings.Contains(msg, "rank 2") {
		t.Errorf("non-panicking ranks reported: %v", msg)
	}
}

func TestReservedTagBand(t *testing.T) {
	// User Send/Recv must reject the reserved band outright.
	err := Run(2, func(w *Comm) {
		if w.Rank() == 0 {
			func() {
				defer func() {
					if recover() == nil {
						t.Error("Send into the reserved band did not panic")
					}
				}()
				w.Send(1, ReservedTagBase, nil)
			}()
			func() {
				defer func() {
					if recover() == nil {
						t.Error("Recv from the reserved band did not panic")
					}
				}()
				w.Recv(1, ReservedTagBase+5)
			}()
			// The sanctioned path works, and coexists with a user tag of the
			// same numeric salt.
			w.SendReserved(1, 9, "reserved")
			w.Send(1, 9, "user")
		} else {
			if got := w.Recv(0, 9).(string); got != "user" {
				t.Errorf("user tag 9 got %q", got)
			}
			if got := w.RecvReserved(0, 9).(string); got != "reserved" {
				t.Errorf("reserved salt 9 got %q", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReservedSaltRangeValidated(t *testing.T) {
	err := Run(1, func(w *Comm) {
		for _, salt := range []int{-1, ReservedTagSpan} {
			salt := salt
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("salt %d did not panic", salt)
					}
				}()
				w.SendReserved(0, salt, nil)
			}()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSplitNonPowerOfTwoThreeWay pins the (color, key) ordering contract on
// awkward sizes: three colors over 7 ranks with reversed keys.
func TestSplitNonPowerOfTwoThreeWay(t *testing.T) {
	err := Run(7, func(w *Comm) {
		color := w.Rank() % 3
		sub := w.Split(color, -w.Rank(), "tri")
		wantSize := []int{3, 2, 2}[color]
		if sub.Size() != wantSize {
			t.Errorf("rank %d: size %d want %d", w.Rank(), sub.Size(), wantSize)
		}
		// Reversed keys: the highest world rank in the color gets sub rank 0.
		highest := color + 3*((7-1-color)/3)
		wantRank := (highest - w.Rank()) / 3
		if sub.Rank() != wantRank {
			t.Errorf("rank %d color %d: sub rank %d want %d", w.Rank(), color, sub.Rank(), wantRank)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBarrierManyRounds stresses round/tag separation of the dissemination
// barrier across sizes including non-powers of two.
func TestBarrierManyRounds(t *testing.T) {
	for _, size := range []int{2, 3, 5, 8, 13} {
		err := Run(size, func(w *Comm) {
			for i := 0; i < 50; i++ {
				w.Barrier()
			}
		})
		if err != nil {
			t.Fatalf("P=%d: %v", size, err)
		}
	}
}

// maxHopDepth runs `rounds` iterations of one collective pattern on p ranks
// and returns the per-operation critical-path length: max over ranks of the
// final hop clock, divided by rounds.
func maxHopDepth(t *testing.T, p, rounds int, body func(w *Comm, r int)) float64 {
	t.Helper()
	perRank := make([]int, p)
	err := Run(p, func(w *Comm) {
		for r := 0; r < rounds; r++ {
			body(w, r)
		}
		perRank[w.Rank()] = w.Hops()
	})
	if err != nil {
		t.Fatal(err)
	}
	max := 0
	for _, h := range perRank {
		if h > max {
			max = h
		}
	}
	return float64(max) / float64(rounds)
}

// TestHopDepthSubLinear is the scaling claim of this package, verified
// mechanically: the critical-path depth (hop clock) of the tree/recursive-
// doubling collectives grows like log2 P, while the rank-0 funnel pattern the
// seed used — reproduced here over plain Send/Recv — grows like P. Wall-clock
// benchmarks cannot show this on a host with fewer cores than ranks (all
// ranks share the cores, so elapsed time tracks total work); the hop clock
// measures the latency a real machine with one processor per rank would see.
func TestHopDepthSubLinear(t *testing.T) {
	const rounds = 16
	for _, p := range []int{8, 16, 32, 64} {
		logP := 0
		for 1<<logP < p {
			logP++
		}
		tree := maxHopDepth(t, p, rounds, func(w *Comm, r int) {
			var data any
			if w.Rank() == 0 {
				data = []float64{1, 2, 3, 4}
			}
			w.Bcast(0, data)
		})
		funnel := maxHopDepth(t, p, rounds, func(w *Comm, r int) {
			if w.Rank() == 0 {
				for dst := 1; dst < w.Size(); dst++ {
					w.Send(dst, r, []float64{1, 2, 3, 4})
				}
			} else {
				w.Recv(0, r)
			}
		})
		rd := maxHopDepth(t, p, rounds, func(w *Comm, r int) {
			w.Allreduce([]float64{float64(w.Rank())}, Sum)
		})
		t.Logf("P=%2d: bcast tree %.1f hops/op, funnel %.1f; allreduce RD %.1f (2·log2P = %d)",
			p, tree, funnel, rd, 2*logP)
		if bound := float64(2*logP + 4); tree > bound {
			t.Errorf("P=%d: tree Bcast depth %.1f exceeds O(log P) bound %.1f", p, tree, bound)
		}
		if bound := float64(2*logP + 4); rd > bound {
			t.Errorf("P=%d: recursive-doubling Allreduce depth %.1f exceeds O(log P) bound %.1f", p, rd, bound)
		}
		if funnel < float64(p-2) {
			t.Errorf("P=%d: funnel baseline depth %.1f unexpectedly below P-2; baseline broken", p, funnel)
		}
		if p >= 16 && tree*2 > funnel {
			t.Errorf("P=%d: tree depth %.1f not clearly below funnel depth %.1f", p, tree, funnel)
		}
	}
}
