// Communication-layer benchmarks: collective latency of the in-process MPI
// runtime at several communicator sizes, plus the end-to-end MCI three-step
// interface exchange. The paper's claim (§3.1, Fig. 4) is that coupling
// overhead stays negligible as the core count grows; these benchmarks track
// how the collective algorithms scale with P (tree/recursive-doubling depth
// ~log P).
//
// Two metrics are reported per operation:
//
//   - ns/op: wall-clock on the host. On a machine with fewer cores than
//     ranks this measures TOTAL work, not latency — all ranks share the
//     cores, so every algorithm doing Ω(P) aggregate sends appears linear
//     in P regardless of its depth.
//   - hops/op: the runtime's hop clock (mpi.Comm.Hops) — the critical-path
//     length in point-to-point operations, i.e. the latency the collective
//     would exhibit with one processor per rank. This is the quantity the
//     paper's scaling argument is about, and it is measured, not modeled:
//     every send and receive advances a Lamport-style clock.
//
// Each benchmark iteration spawns the ranks once and then runs commRounds
// collectives, so the goroutine setup cost is amortized identically across
// communicator sizes and implementations.
package nektarg_test

import (
	"fmt"
	"testing"

	"nektarg/internal/mci"
	"nektarg/internal/mpi"
)

// commRounds is the number of collective operations per mpi.Run; large enough
// that per-collective latency dominates rank spawn cost.
const commRounds = 50

// commSizes are the communicator sizes the paper's scaling argument spans in
// miniature.
var commSizes = []int{4, 16, 64}

// runWithHops runs body on p ranks and returns the maximum hop-clock value
// any rank accumulated — the critical-path length (in point-to-point
// operations) of everything body did.
func runWithHops(b *testing.B, p int, body func(w *mpi.Comm)) int {
	b.Helper()
	perRank := make([]int, p)
	if err := mpi.Run(p, func(w *mpi.Comm) {
		body(w)
		perRank[w.Rank()] = w.Hops()
	}); err != nil {
		b.Fatal(err)
	}
	max := 0
	for _, h := range perRank {
		if h > max {
			max = h
		}
	}
	return max
}

// benchCollective is the shared harness: b.N spawns, commRounds collectives
// per spawn, hop-depth reported per collective.
func benchCollective(b *testing.B, p int, body func(w *mpi.Comm)) {
	b.Helper()
	maxHops := 0
	for i := 0; i < b.N; i++ {
		if h := runWithHops(b, p, body); h > maxHops {
			maxHops = h
		}
	}
	b.ReportMetric(float64(maxHops)/commRounds, "hops/op")
}

func BenchmarkBcast(b *testing.B) {
	for _, p := range commSizes {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			payload := make([]float64, 1024)
			benchCollective(b, p, func(w *mpi.Comm) {
				for r := 0; r < commRounds; r++ {
					var data any
					if w.Rank() == 0 {
						data = payload
					}
					got := w.Bcast(0, data).([]float64)
					if len(got) != 1024 {
						panic("bad bcast payload")
					}
				}
			})
		})
	}
}

func BenchmarkAllreduce(b *testing.B) {
	for _, p := range commSizes {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			benchCollective(b, p, func(w *mpi.Comm) {
				local := make([]float64, 256)
				for j := range local {
					local[j] = float64(w.Rank() + j)
				}
				for r := 0; r < commRounds; r++ {
					got := w.Allreduce(local, mpi.Sum)
					if len(got) != 256 {
						panic("bad allreduce payload")
					}
				}
			})
		})
	}
}

func BenchmarkBarrier(b *testing.B) {
	for _, p := range commSizes {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			benchCollective(b, p, func(w *mpi.Comm) {
				for r := 0; r < commRounds; r++ {
					w.Barrier()
				}
			})
		})
	}
}

// BenchmarkMCIExchange measures the full three-step interface exchange
// (gather to L4 root, root-to-root swap over World, scatter to peers) between
// two solver tasks of P/2 ranks each, every rank an interface member. The
// exchange spans several communicators (L3, L4, World), whose hop clocks are
// independent, so only wall-clock is reported here.
func BenchmarkMCIExchange(b *testing.B) {
	for _, p := range commSizes {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			half := p / 2
			cfg := mci.Config{Tasks: []mci.TaskSpec{
				{Name: "a", Ranks: half}, {Name: "b", Ranks: half},
			}}
			perRank := 128
			for i := 0; i < b.N; i++ {
				err := mpi.Run(p, func(w *mpi.Comm) {
					h, err := mci.Build(w, cfg)
					if err != nil {
						panic(err)
					}
					g, err := mci.NewInterfaceGroup(h, "io", true)
					if err != nil {
						panic(err)
					}
					peer := map[int]int{0: half, 1: 0}[h.Task]
					counts := make([]int, half)
					for j := range counts {
						counts[j] = perRank
					}
					local := make([]float64, perRank)
					for r := 0; r < commRounds/5; r++ {
						got := g.Exchange(h.World, peer, g.Salt(), local, counts)
						if len(got) != perRank {
							panic("bad exchange payload")
						}
					}
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
