package core

import (
	"errors"
	"os"
	"strings"
	"testing"

	"nektarg/internal/checkpoint"
	"nektarg/internal/monitor"
	"nektarg/internal/mpi"
)

// TestRecoveryFromInjectedRankKill is the PR's acceptance scenario: the full
// coupled run executes inside the fault-injected runtime, a rank death is
// injected at exchange 2, the recovery loop dumps the flight recorder,
// reloads the last good checkpoint and continues — and the final state is
// bit-identical to a run that never saw the fault.
func TestRecoveryFromInjectedRankKill(t *testing.T) {
	const exchanges = 4

	// Reference: the same physics with no fault and no restart.
	straight := buildRestartScenario(t)
	straight.advance(t, exchanges)
	want := straight.finalBundle()

	ckDir := t.TempDir()
	flightDir := t.TempDir()
	var got *checkpoint.Coupled
	plan := mpi.FaultPlan{Seed: 42, KillRank: 0, KillStep: 2}
	err := mpi.RunFaulty(1, plan, func(world *mpi.Comm) {
		sc := buildRestartScenario(t)
		health := monitor.NewHealth()
		flight := monitor.NewFlightRecorder(flightDir, nil, health)
		ck := &Checkpointer{
			Meta:     sc.m,
			Networks: sc.networks,
			Store:    &checkpoint.Store{Dir: ckDir},
			Every:    1,
		}
		err := RunWithRecovery(ck, exchanges, RecoveryOptions{
			Flight: flight,
			Health: health,
			OnExchange: func(e int) error {
				world.FaultPoint(e) // dies here at exchange 2, exactly once
				return nil
			},
		})
		if err != nil {
			t.Errorf("recovery loop did not survive the injected kill: %v", err)
			return
		}
		if len(flight.Dumps()) != 1 {
			t.Errorf("flight recorder wrote %d dumps, want 1", len(flight.Dumps()))
		}
		got = sc.m.CaptureCheckpoint(sc.networks)
	}, nil)
	if err != nil {
		t.Fatalf("the kill escaped the recovery envelope: %v", err)
	}
	if got == nil {
		t.Fatal("faulted run produced no final state")
	}
	if got.Exchanges != exchanges {
		t.Fatalf("faulted run stopped at exchange %d, want %d", got.Exchanges, exchanges)
	}
	assertCoupledEqual(t, got, want, "killed-and-resumed vs straight")

	// A rank death that surfaces as an error-valued panic and never heals:
	// the loop gives up, and what it returns still carries the panic value's
	// chain, so a supervisor can tell a lost world from a local failure.
	t.Run("error panic keeps its chain", func(t *testing.T) {
		sc := buildRestartScenario(t)
		ck := &Checkpointer{Meta: sc.m, Networks: sc.networks, Store: &checkpoint.Store{Dir: t.TempDir()}, Every: 1}
		err := RunWithRecovery(ck, exchanges, RecoveryOptions{
			MaxRestarts: 1,
			OnExchange: func(e int) error {
				if e == 2 {
					panic(&mpi.WorldLostError{Cause: errors.New("peer 1: connection reset")})
				}
				return nil
			},
		})
		var lost *mpi.WorldLostError
		if !errors.As(err, &lost) {
			t.Fatalf("the panic's error chain was flattened: %v", err)
		}
	})
}

// TestRecoveryGivesUpOnPersistentFault: a fault that re-fires at the same
// exchange on every attempt must drain the restart budget and abort with a
// descriptive error instead of looping forever.
func TestRecoveryGivesUpOnPersistentFault(t *testing.T) {
	sc := buildRestartScenario(t)
	ck := &Checkpointer{
		Meta:     sc.m,
		Networks: sc.networks,
		Store:    &checkpoint.Store{Dir: t.TempDir()},
		Every:    1,
	}
	attempts := 0
	wantErr := errors.New("deterministic solver blow-up")
	err := RunWithRecovery(ck, 4, RecoveryOptions{
		MaxRestarts: 2,
		OnExchange: func(e int) error {
			if e == 2 {
				attempts++
				return wantErr
			}
			return nil
		},
	})
	if err == nil {
		t.Fatal("expected the persistent fault to abort the run")
	}
	if !errors.Is(err, wantErr) {
		t.Fatalf("abort error does not wrap the fault: %v", err)
	}
	if !strings.Contains(err.Error(), "giving up") {
		t.Fatalf("abort error does not explain the drained budget: %v", err)
	}
	if attempts != 3 { // initial try + MaxRestarts retries
		t.Fatalf("fault site attempted %d times, want 3", attempts)
	}
}

// TestRecoveryBudgetRefillsOnProgress: transient faults at different
// positions each get the full budget — forward progress resets the counter,
// so a long run tolerates many isolated hiccups.
func TestRecoveryBudgetRefillsOnProgress(t *testing.T) {
	sc := buildRestartScenario(t)
	ck := &Checkpointer{
		Meta:     sc.m,
		Networks: sc.networks,
		Store:    &checkpoint.Store{Dir: t.TempDir()},
		Every:    1,
	}
	// Each exchange fails exactly MaxRestarts times before succeeding: with
	// a per-position budget this completes; with a global budget it cannot.
	failures := map[int]int{}
	err := RunWithRecovery(ck, 3, RecoveryOptions{
		MaxRestarts: 2,
		OnExchange: func(e int) error {
			if failures[e] < 2 {
				failures[e]++
				return errors.New("transient hiccup")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("per-position budget should absorb transient faults: %v", err)
	}
	if sc.m.Exchanges != 3 {
		t.Fatalf("run stopped at exchange %d, want 3", sc.m.Exchanges)
	}
}

// TestRecoveryFromWatchdogTrip: a critical watchdog event recorded during an
// exchange — with no error returned — must still trigger the
// dump-restore-continue path, and the re-armed watchdogs must be able to
// trip again after the restore.
func TestRecoveryFromWatchdogTrip(t *testing.T) {
	sc := buildRestartScenario(t)
	health := monitor.NewHealth()
	sc.m.EnableMonitoring(health)
	ck := &Checkpointer{
		Meta:     sc.m,
		Networks: sc.networks,
		Store:    &checkpoint.Store{Dir: t.TempDir()},
		Every:    1,
	}
	trips := 0
	err := RunWithRecovery(ck, 3, RecoveryOptions{
		Health: health,
		OnExchange: func(e int) error {
			if e == 2 && trips < 1 {
				trips++
				// A probe with no error path records a critical event; the
				// guarded exchange must convert it into a recovery.
				sc.m.watch.Event(monitor.SevCritical, "test-probe", "synthetic corruption", 1)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("watchdog trip was not recovered: %v", err)
	}
	if sc.m.Exchanges != 3 {
		t.Fatalf("run stopped at exchange %d, want 3", sc.m.Exchanges)
	}
	if health.Trips() != 1 {
		t.Fatalf("health recorded %d trips, want 1", health.Trips())
	}
}

// TestRecoveryWritesBaselineCheckpoint: entering the loop with an empty store
// must write a baseline so even an exchange-1 fault is recoverable.
func TestRecoveryWritesBaselineCheckpoint(t *testing.T) {
	sc := buildRestartScenario(t)
	dir := t.TempDir()
	ck := &Checkpointer{
		Meta:     sc.m,
		Networks: sc.networks,
		Store:    &checkpoint.Store{Dir: dir},
		// Every = 0: no periodic writes, only the baseline.
	}
	failed := false
	err := RunWithRecovery(ck, 2, RecoveryOptions{
		OnExchange: func(e int) error {
			if e == 1 && !failed {
				failed = true
				return errors.New("first-exchange fault")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("exchange-1 fault must be recoverable from the baseline: %v", err)
	}
	entries, rerr := os.ReadDir(dir)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(entries) == 0 {
		t.Fatal("no baseline checkpoint written")
	}
}

// TestRecoveryRefusesForeignStore: a fresh run pointed at a directory that
// still holds a previous run's newer-numbered checkpoints must be refused —
// its own files would be pruned first, and a fault would "recover" into the
// other run's state. Resuming from that store remains fine.
func TestRecoveryRefusesForeignStore(t *testing.T) {
	dir := t.TempDir()
	old := buildRestartScenario(t)
	ck := &Checkpointer{Meta: old.m, Networks: old.networks, Store: &checkpoint.Store{Dir: dir}, Every: 1}
	if err := RunWithRecovery(ck, 3, RecoveryOptions{}); err != nil {
		t.Fatal(err)
	}

	fresh := buildRestartScenario(t)
	ck = &Checkpointer{Meta: fresh.m, Networks: fresh.networks, Store: &checkpoint.Store{Dir: dir}, Every: 1}
	err := RunWithRecovery(ck, 4, RecoveryOptions{})
	if !errors.Is(err, ErrForeignStore) {
		t.Fatalf("fresh run into a used store: got %v, want ErrForeignStore", err)
	}
	if fresh.m.Exchanges != 0 {
		t.Fatalf("refused run still advanced to exchange %d", fresh.m.Exchanges)
	}

	if _, err := ck.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := RunWithRecovery(ck, 4, RecoveryOptions{}); err != nil {
		t.Fatalf("resumed run into its own store: %v", err)
	}
}
