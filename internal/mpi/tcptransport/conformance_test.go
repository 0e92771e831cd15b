package tcptransport_test

// Two-transport conformance suite. Every test body here runs unmodified over
// the in-process world (mpi.Run) and over a TCP-loopback world (one
// Transport per rank, each driven by mpi.RunOn on its own goroutine), pinning
// the tentpole contract: the runtime's semantics — collectives, per-(src,
// dst, tag) FIFO, AnySource, reserved bands and salts, Split and the MCI
// hierarchy on top of it, the Lamport hop clock, and the deterministic fault
// schedule — are properties of the runtime, not of the wire underneath it.

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"nektarg/internal/mci"
	"nektarg/internal/mpi"
	"nektarg/internal/mpi/tcptransport"
)

var kinds = []string{"inproc", "tcp"}

// runWorld executes body as a size-rank world over the given transport kind.
func runWorld(t testing.TB, kind string, size int, body func(w *mpi.Comm)) error {
	t.Helper()
	return runWorldFaulty(t, kind, size, nil, body)
}

func runWorldFaulty(t testing.TB, kind string, size int, plan *mpi.FaultPlan, body func(w *mpi.Comm)) error {
	t.Helper()
	switch kind {
	case "inproc":
		if plan != nil {
			return mpi.RunFaulty(size, *plan, body, nil)
		}
		return mpi.Run(size, body)
	case "tcp":
		trs, err := tcptransport.Loopback(size)
		if err != nil {
			t.Fatalf("loopback: %v", err)
		}
		errs := make([]error, size)
		var wg sync.WaitGroup
		for i, tr := range trs {
			wg.Add(1)
			go func(i int, tr *tcptransport.Transport) {
				defer wg.Done()
				if plan != nil {
					errs[i] = mpi.RunOnFaulty(tr, *plan, body, nil)
				} else {
					errs[i] = mpi.RunOn(tr, body)
				}
			}(i, tr)
		}
		wg.Wait()
		return errors.Join(errs...)
	default:
		t.Fatalf("unknown transport kind %q", kind)
		return nil
	}
}

func TestConformanceCollectives(t *testing.T) {
	for _, kind := range kinds {
		for _, size := range []int{1, 2, 3, 5, 8} {
			t.Run(fmt.Sprintf("%s/p=%d", kind, size), func(t *testing.T) {
				err := runWorld(t, kind, size, func(w *mpi.Comm) {
					p := w.Size()
					r := w.Rank()

					// Bcast: every rank gets root's payload and owns it.
					got := w.Bcast(0, payloadFor(r == 0, []float64{3, 1, 4}))
					if !reflect.DeepEqual(got, []float64{3, 1, 4}) {
						panic(fmt.Sprintf("Bcast: rank %d got %v", r, got))
					}
					got.([]float64)[0] = -1 // mutation must not race peers

					// Allreduce / AllreduceInt.
					sum := w.Allreduce([]float64{float64(r + 1)}, mpi.Sum)
					if want := float64(p*(p+1)) / 2; sum[0] != want {
						panic(fmt.Sprintf("Allreduce: got %v want %v", sum[0], want))
					}
					mx := w.AllreduceInt([]int{r}, mpi.MaxInt)
					if mx[0] != p-1 {
						panic(fmt.Sprintf("AllreduceInt: got %v", mx[0]))
					}

					// Gather / Scatter round-trip.
					gathered := w.Gather(0, []int{r * 10})
					var parts []any
					if r == 0 {
						parts = make([]any, p)
						for i, g := range gathered {
							v := g.([]int)
							parts[i] = []int{v[0] + 1}
						}
					}
					part := w.Scatter(0, parts).([]int)
					if part[0] != r*10+1 {
						panic(fmt.Sprintf("Gather+Scatter: rank %d got %v", r, part))
					}

					w.Barrier()
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// payloadFor returns data on the root and nil elsewhere (Bcast convention).
func payloadFor(isRoot bool, data any) any {
	if isRoot {
		return data
	}
	return nil
}

func TestConformancePointToPointFIFO(t *testing.T) {
	const n = 64
	for _, kind := range kinds {
		t.Run(kind, func(t *testing.T) {
			err := runWorld(t, kind, 4, func(w *mpi.Comm) {
				p := w.Size()
				next := (w.Rank() + 1) % p
				prev := (w.Rank() - 1 + p) % p
				for i := 0; i < n; i++ {
					w.Send(next, 7, []int{w.Rank(), i})
				}
				for i := 0; i < n; i++ {
					v := w.Recv(prev, 7).([]int)
					if v[0] != prev || v[1] != i {
						panic(fmt.Sprintf("rank %d: message %d out of order: %v", w.Rank(), i, v))
					}
				}
				// AnySource completeness: rank 0 hears from everyone.
				if w.Rank() != 0 {
					w.Send(0, 9, w.Rank())
				} else {
					seen := map[int]bool{}
					for i := 1; i < p; i++ {
						seen[w.Recv(mpi.AnySource, 9).(int)] = true // the payload is the sender
					}
					if len(seen) != p-1 {
						panic(fmt.Sprintf("AnySource: heard from %d peers", len(seen)))
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestConformanceReservedBand(t *testing.T) {
	for _, kind := range kinds {
		t.Run(kind, func(t *testing.T) {
			salt := mci.SaltFor("conformance/iface")
			err := runWorld(t, kind, 3, func(w *mpi.Comm) {
				switch w.Rank() {
				case 1, 2:
					r := float64(w.Rank())
					w.SendReserved(0, salt, []float64{r, 10 * r})
				case 0:
					seen := map[float64]bool{}
					for len(seen) < 2 {
						v := w.RecvReserved(mpi.AnySource, salt).([]float64) // {sender, 10·sender}
						if v[1] != 10*v[0] || seen[v[0]] {
							panic(fmt.Sprintf("reserved payload mismatch or repeat: %v", v))
						}
						seen[v[0]] = true
					}
					if !seen[1] || !seen[2] {
						panic(fmt.Sprintf("reserved band heard from %v, want ranks 1 and 2", seen))
					}
				}
				w.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConformanceMCIExchange runs the full paper pipeline — Build's L2/L3
// splits, NewInterfaceGroup's L4 split and root discovery, and the 3-step
// gather → root-exchange → scatter — over both transports. This is the
// highest-level consumer of Split, reserved-band salts and collectives, so
// passing here means the wire id derivation for nested communicators agrees
// across processes.
func TestConformanceMCIExchange(t *testing.T) {
	cfg := mci.Config{Tasks: []mci.TaskSpec{{Name: "left", Ranks: 4}, {Name: "right", Ranks: 4}}}
	for _, kind := range kinds {
		t.Run(kind, func(t *testing.T) {
			err := runWorld(t, kind, 8, func(w *mpi.Comm) {
				h, err := mci.Build(w, cfg)
				if err != nil {
					panic(err)
				}
				local := h.L3.Rank()
				member := local == 1 || local == 3
				g, err := mci.NewInterfaceGroup(h, "iface", member)
				if err != nil {
					panic(err)
				}
				if !member {
					return
				}
				base := float64(100*(h.Task+1) + 10*local)
				mine := []float64{base, base + 1}
				peerRoot := map[int]int{0: 5, 1: 1}[h.Task]
				got := g.Exchange(h.World, peerRoot, g.Salt(), mine, []int{2, 2})
				peerTask := 1 - h.Task
				wantLocal := []int{1, 3}[g.L4.Rank()]
				wantBase := float64(100*(peerTask+1) + 10*wantLocal)
				if len(got) != 2 || got[0] != wantBase || got[1] != wantBase+1 {
					panic(fmt.Sprintf("task %d local %d got %v want base %v", h.Task, local, got, wantBase))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConformanceHopDepth pins that the Lamport hop clock is carried across
// the wire: the critical-path depth of a broadcast must be identical on both
// transports (it is a property of the binomial tree, not of scheduling or
// serialization).
func TestConformanceHopDepth(t *testing.T) {
	depth := map[string]int{}
	for _, kind := range kinds {
		var mu sync.Mutex
		maxHops := 0
		err := runWorld(t, kind, 8, func(w *mpi.Comm) {
			w.Bcast(0, []float64{1})
			h := w.Hops()
			mu.Lock()
			if h > maxHops {
				maxHops = h
			}
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		if maxHops == 0 {
			t.Fatalf("%s: hop clock never advanced", kind)
		}
		depth[kind] = maxHops
	}
	if depth["inproc"] != depth["tcp"] {
		t.Fatalf("Bcast critical path differs: inproc %d hops, tcp %d hops", depth["inproc"], depth["tcp"])
	}
}

// TestConformanceFaultDeterminism replays one drop+corrupt fault plan over
// both transports and asserts the injected schedule is bit-identical: the
// same sends dropped, the same elements corrupted, the same survivors
// delivered in the same order. The fault choke point sits above the
// transport seam, so the plan must not care where the bytes go.
func TestConformanceFaultDeterminism(t *testing.T) {
	const n = 40
	plan := mpi.FaultPlan{Seed: 42, DropProb: 0.2, CorruptProb: 0.2}
	type rankTrace struct {
		stats mpi.FaultStats
		got   []float64
	}
	traces := map[string][]rankTrace{}
	for _, kind := range kinds {
		tr := make([]rankTrace, 4)
		var mu sync.Mutex
		err := runWorldFaulty(t, kind, 4, &plan, func(w *mpi.Comm) {
			p := w.Size()
			next := (w.Rank() + 1) % p
			prev := (w.Rank() - 1 + p) % p
			for i := 0; i < n; i++ {
				w.Send(next, 5, []float64{float64(1000*w.Rank() + i)})
			}
			// Every rank learns how many of prev's sends to it were dropped
			// and receives exactly the survivors.
			mine := make([]int, p)
			mine[w.Rank()] = int(w.FaultStats().Dropped)
			dropped := w.AllreduceInt(mine, mpi.SumInt)
			var got []float64
			for i := 0; i < n-dropped[prev]; i++ {
				got = append(got, w.Recv(prev, 5).([]float64)[0])
			}
			mu.Lock()
			tr[w.Rank()] = rankTrace{stats: w.FaultStats(), got: got}
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		dropped := 0
		for _, rt := range tr {
			dropped += int(rt.stats.Dropped)
		}
		if dropped == 0 {
			t.Fatalf("%s: plan injected no drops; test is vacuous", kind)
		}
		traces[kind] = tr
	}
	if !reflect.DeepEqual(traces["inproc"], traces["tcp"]) {
		t.Fatalf("fault schedule diverged between transports:\ninproc: %+v\ntcp:    %+v",
			traces["inproc"], traces["tcp"])
	}
}

// TestTCPPeerDeathUnblocksBlockedRanks pins the teardown contract: when a
// rank dies without a graceful close, peers blocked in a receive unwind with
// a world-lost error instead of hanging forever. (In-process worlds keep the
// historical behavior: a panicking rank may leave peers blocked, and Run's
// caller owns the fallout.)
func TestTCPPeerDeathUnblocksBlockedRanks(t *testing.T) {
	trs, err := tcptransport.Loopback(2)
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		errs[0] = mpi.RunOn(trs[0], func(w *mpi.Comm) {
			w.Recv(1, 1) // never satisfied: rank 1 dies first
		})
	}()
	go func() {
		defer wg.Done()
		errs[1] = mpi.RunOn(trs[1], func(w *mpi.Comm) {
			panic("simulated solver blow-up")
		})
	}()
	wg.Wait()
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "simulated solver blow-up") {
		t.Fatalf("rank 1 error = %v", errs[1])
	}
	if errs[0] == nil || !strings.Contains(errs[0].Error(), "world lost") {
		t.Fatalf("rank 0 should unwind with a world-lost error, got %v", errs[0])
	}
}
