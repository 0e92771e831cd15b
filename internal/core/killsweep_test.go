package core

// The kill sweep over both legs of the recover-and-resume loop: for every
// exchange index k of a 4-exchange restart scenario, a one-shot kill at k —
// a panic in the per-exchange hook, the way cmd/nektarg's -kill-at does it —
// under RunWithRecovery's one-rank in-process world, and on rank 1 of a
// 2-rank TCP world under RunDistributed in this process. Every leg must end
// bit-identical to the unfaulted run, with exactly one flight dump per kill.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"nektarg/internal/checkpoint"
	"nektarg/internal/monitor"
	"nektarg/internal/mpi"
	"nektarg/internal/mpi/tcptransport"
)

// panicOnceAt returns a per-exchange hook that panics the first time it
// runs after exchange k.
func panicOnceAt(k int) func(e int) error {
	fired := false
	return func(e int) error {
		if e == k && !fired {
			fired = true
			panic(fmt.Sprintf("injected fault after exchange %d", e))
		}
		return nil
	}
}

// sweepLeg is one rank's wiring for a kill-sweep run.
type sweepLeg struct {
	sc     *restartScenario
	ck     *Checkpointer
	flight *monitor.FlightRecorder
}

func newSweepLeg(t *testing.T) *sweepLeg {
	sc := buildRestartScenario(t)
	return &sweepLeg{
		sc:     sc,
		ck:     &Checkpointer{Meta: sc.m, Networks: sc.networks, Store: &checkpoint.Store{Dir: t.TempDir()}, Every: 1},
		flight: monitor.NewFlightRecorder(t.TempDir(), nil, nil),
	}
}

// check asserts the leg survived its one kill bit-identically.
func (l *sweepLeg) check(t *testing.T, err error, want *checkpoint.Coupled, label string) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: the kill was not recovered: %v", label, err)
	}
	if n := len(l.flight.Dumps()); n != 1 {
		t.Errorf("%s: %d flight dumps, want 1", label, n)
	}
	assertCoupledEqual(t, l.sc.finalBundle(), want, label)
}

func TestKillSweepBothLegs(t *testing.T) {
	const exchanges = 4
	start := time.Now()
	straight := buildRestartScenario(t)
	straight.advance(t, exchanges)
	want := straight.finalBundle()

	for k := 1; k <= exchanges; k++ {
		t.Run(fmt.Sprintf("in-process/kill-at-%d", k), func(t *testing.T) {
			l := newSweepLeg(t)
			err := RunWithRecovery(l.ck, exchanges, RecoveryOptions{Flight: l.flight, OnExchange: panicOnceAt(k)})
			l.check(t, err, want, "one-rank world")
		})

		t.Run(fmt.Sprintf("tcp/kill-at-%d", k), func(t *testing.T) {
			peers := []string{freeAddr(t), freeAddr(t)}
			legs := []*sweepLeg{newSweepLeg(t), newSweepLeg(t)}
			errs := make([]error, len(legs))
			var wg sync.WaitGroup
			for rank, l := range legs {
				hook := func(int) error { return nil }
				if rank == 1 {
					hook = panicOnceAt(k)
				}
				wg.Add(1)
				go func(rank int, l *sweepLeg) {
					defer wg.Done()
					errs[rank] = RunDistributed(l.ck, exchanges, DistributedOptions{
						Dial: func() (mpi.Transport, error) {
							return tcptransport.New(rank, peers, tcptransport.Options{RendezvousTimeout: 10 * time.Second})
						},
						Backoff:    10 * time.Millisecond,
						Flight:     l.flight,
						OnExchange: func(_ *mpi.Comm, e int) error { return hook(e) },
					})
				}(rank, l)
			}
			wg.Wait()
			for rank, l := range legs {
				l.check(t, errs[rank], want, fmt.Sprintf("rank %d of 2", rank))
			}
		})
	}
	if d := time.Since(start); !raceEnabled && d > 10*time.Second {
		t.Errorf("kill sweep took %v, budget 10s", d)
	}
}
