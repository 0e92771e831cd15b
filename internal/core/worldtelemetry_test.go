package core

import (
	"errors"
	"sync"
	"testing"

	"nektarg/internal/checkpoint"
	"nektarg/internal/mpi"
	"nektarg/internal/mpi/tcptransport"
	"nektarg/internal/telemetry"
)

// TestDistributedRunCountsWorldTraffic: under RunDistributed the world
// communicator carries the metasolver's recorder, so the resume agreement
// and the lockstep commits are counted as World-level allreduce traffic on
// the "metasolver" track, and spans opened after the first commit carry the
// world's hop clock.
func TestDistributedRunCountsWorldTraffic(t *testing.T) {
	const exchanges = 2
	trs, err := tcptransport.Loopback(2)
	if err != nil {
		t.Fatal(err)
	}
	scs := []*restartScenario{buildRestartScenario(t), buildRestartScenario(t)}
	errs := make([]error, len(scs))
	var wg sync.WaitGroup
	for rank, sc := range scs {
		sc.m.EnableTelemetry(telemetry.NewRegistry())
		ck := &Checkpointer{Meta: sc.m, Networks: sc.networks, Store: &checkpoint.Store{Dir: t.TempDir()}, Every: 1}
		tr := trs[rank]
		dialed := false
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = RunDistributed(ck, exchanges, DistributedOptions{
				Dial: func() (mpi.Transport, error) {
					if dialed {
						return nil, errors.New("the unfaulted run dials once")
					}
					dialed = true
					return tr, nil
				},
			})
		}(rank)
	}
	wg.Wait()

	for rank, sc := range scs {
		if errs[rank] != nil {
			t.Fatalf("rank %d: %v", rank, errs[rank])
		}
		rec := sc.m.Telemetry()
		if rec.Track() != "metasolver" {
			t.Fatalf("rank %d: the metasolver's track is %q", rank, rec.Track())
		}
		// One agreement plus one commit per exchange, each a 2-rank
		// recursive-doubling allreduce: one message per rank per allreduce.
		if got := rec.Snapshot().Traffic[telemetry.LevelWorld][telemetry.OpAllreduce]; got.Msgs != 1+exchanges {
			t.Errorf("rank %d: World allreduce traffic %+v, want %d messages", rank, got, 1+exchanges)
		}
		stamped := false
		for _, sp := range rec.Spans(0) {
			if sp.Name == "meta.step" && sp.Hops0 > 0 {
				stamped = true
				break
			}
		}
		if !stamped {
			t.Errorf("rank %d: no meta.step span after the first commit carries a hop stamp", rank)
		}
	}
}
