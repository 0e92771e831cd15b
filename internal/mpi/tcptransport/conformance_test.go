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
	"time"

	"nektarg/internal/mci"
	"nektarg/internal/mpi"
	"nektarg/internal/mpi/tcptransport"
	"nektarg/internal/telemetry"
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

					// Reduce to a non-zero root.
					root := p - 1
					red := w.Reduce(root, []float64{float64(r)}, mpi.Sum)
					if r == root {
						if want := float64(p*(p-1)) / 2; red[0] != want {
							panic(fmt.Sprintf("Reduce: got %v want %v", red[0], want))
						}
					} else if red != nil {
						panic("Reduce: non-root got payload")
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

					// Allgather order.
					all := w.Allgather(r)
					for i, v := range all {
						if v.(int) != i {
							panic(fmt.Sprintf("Allgather: slot %d holds %v", i, v))
						}
					}

					// Alltoall personalized exchange.
					outParts := make([]any, p)
					for i := range outParts {
						outParts[i] = 100*r + i
					}
					in := w.Alltoall(outParts)
					for i, v := range in {
						if v.(int) != 100*i+r {
							panic(fmt.Sprintf("Alltoall: from %d got %v", i, v))
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
						v, src := w.RecvFrom(mpi.AnySource, 9)
						if v.(int) != src {
							panic("AnySource: payload does not match reported source")
						}
						seen[src] = true
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
					w.SendReserved(0, salt, []float64{float64(10 * w.Rank())})
				case 0:
					seen := 0
					for seen < 2 {
						v, src := w.RecvReservedFrom(mpi.AnySource, salt)
						if v.([]float64)[0] != float64(10*src) {
							panic("reserved payload mismatch")
						}
						seen++
					}
					if v, ok := w.TryRecvReserved(mpi.AnySource, salt); ok {
						panic(fmt.Sprintf("unexpected extra reserved message %v", v))
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

func TestConformanceIrecvFIFO(t *testing.T) {
	const n = 32
	for _, kind := range kinds {
		t.Run(kind, func(t *testing.T) {
			err := runWorld(t, kind, 2, func(w *mpi.Comm) {
				switch w.Rank() {
				case 0:
					for i := 0; i < n; i++ {
						w.Send(1, 3, i)
					}
				case 1:
					reqs := make([]*mpi.Request, n)
					for i := range reqs {
						reqs[i] = w.Irecv(0, 3)
					}
					for i, v := range mpi.WaitAll(reqs...) {
						if v.(int) != i {
							panic(fmt.Sprintf("Irecv %d completed with message %v", i, v))
						}
					}
				}
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

// TestConformanceReduceTelemetry runs the cluster reporter over both
// transports. Its partial aggregates ([]*telemetry.ClusterStats) are a
// gob-registered payload, so this is where they cross a real wire; the root
// must hold exactly what the serial telemetry.Aggregate makes of the same
// five snapshots, straggler and a one-rank stage included.
func TestConformanceReduceTelemetry(t *testing.T) {
	const P = 5
	record := func(rec *telemetry.Recorder, r int) {
		rec.RecordSpan("work", 0, time.Duration(r+1)*time.Second, 0, r)
		rec.Gauge("val", float64(r))
		for i := 0; i < r; i++ {
			rec.CountMessage(telemetry.LevelWorld, telemetry.OpCoupling, 10)
		}
		if r == 3 {
			rec.RecordSpan("solo", 0, 2*time.Second, 0, 0)
		}
	}
	var snaps []*telemetry.Snapshot
	for r := 0; r < P; r++ {
		rec := telemetry.NewRegistry().NewRecorder(fmt.Sprintf("rank%d", r))
		record(rec, r)
		snaps = append(snaps, rec.Snapshot())
	}
	want := telemetry.Aggregate(snaps)
	for _, kind := range kinds {
		t.Run(kind, func(t *testing.T) {
			err := runWorld(t, kind, P, func(w *mpi.Comm) {
				rec := telemetry.NewRegistry().NewRecorder(fmt.Sprintf("rank%d", w.Rank()))
				w.AttachTelemetry(rec)
				record(rec, w.Rank())
				got := mpi.ReduceTelemetry(w, rec, 0)
				if w.Rank() != 0 {
					if got != nil {
						panic(fmt.Sprintf("rank %d got cluster stats", w.Rank()))
					}
					return
				}
				if !reflect.DeepEqual(got, want) {
					panic(fmt.Sprintf("tree reduction\n%+v\nserial fold\n%+v", got, want))
				}
				if s := got.Stage("work"); s.Straggler != "rank4" {
					panic(fmt.Sprintf("straggler = %q, want rank4", s.Straggler))
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
			// The barrier rides the same per-pair streams as the data, so
			// after it every surviving message from prev is buffered locally
			// on both transports; drain without blocking.
			w.Barrier()
			var got []float64
			for {
				v, ok := w.TryRecv(prev, 5)
				if !ok {
					break
				}
				got = append(got, v.([]float64)[0])
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
