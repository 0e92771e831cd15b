package core

// The recover-and-resume loop: the fault-tolerance counterpart of
// Metasolver.Advance, for a run on one process or on one rank of a world that
// spans several. A multi-day coupled run dies for many reasons — a solver
// blow-up caught by a watchdog, a rank death surfacing as a panic, a peer
// process killed outright (the survivors learn of it only through the
// transport) — and the production answer is always the same: dump the flight
// recorder (the black box explaining *why*), rebuild the world, roll back to
// the last good checkpoint and continue. One loop does it for every
// placement; only the world it rebuilds differs:
//
//   - RunWithRecovery runs each incarnation as a one-rank in-process world:
//     nothing to dial, nothing to wait for;
//   - RunDistributed runs each as this process's rank of a world over a real
//     transport, re-dialled after a pause that gives a killed peer's
//     supervisor time to relaunch it.
//
// Ranks checkpoint independently and a crash can land between one rank's
// write and another's, so on every (re)connect the ranks agree — one
// AllreduceInt — on the newest exchange *every* rank has on disk, and each
// rolls back to exactly that bundle (on one rank: the store's newest). The
// store's default retention (newest + predecessor) covers the at-most-one-
// period skew the per-exchange lockstep commit allows. The restart budget is
// per position: forward progress refills it, a fault that deterministically
// re-fires at the same exchange drains it and aborts.

import (
	"errors"
	"fmt"
	"log/slog"
	"time"

	"nektarg/internal/fleet"
	"nektarg/internal/monitor"
	"nektarg/internal/mpi"
)

// RecoveryOptions tunes RunWithRecovery.
type RecoveryOptions struct {
	// MaxRestarts bounds how many times the loop may restore without making
	// new forward progress before giving up; <= 0 means DefaultMaxRestarts.
	MaxRestarts int
	// Flight, when non-nil, receives a dump before every restore attempt —
	// the crashed run's telemetry black box.
	Flight *monitor.FlightRecorder
	// Health, when non-nil, turns new watchdog trips (critical events
	// recorded during an exchange that otherwise returned nil — e.g. the
	// DPD particle-drift guard, which has no error path) into recoveries.
	Health *monitor.Health
	// OnExchange runs after each successful exchange (diagnostics,
	// progress printing). It executes inside the recovery envelope: a panic
	// or error here triggers the same dump-restore-continue path.
	OnExchange func(exchange int) error
	// Log is the optional structured logger.
	Log *slog.Logger
}

// DistributedOptions tunes RunDistributed.
type DistributedOptions struct {
	// Dial builds a fresh transport for this rank's slot in the world. It is
	// called once per world incarnation — at start and after every failure —
	// and the returned transport is owned (started and closed) by the world.
	Dial func() (mpi.Transport, error)
	// MaxRestarts bounds world rebuilds without forward progress before
	// giving up; <= 0 means DefaultMaxRestarts.
	MaxRestarts int
	// Backoff is the pause before re-dialing after a failure (default
	// 250ms), giving a killed peer's supervisor time to relaunch it.
	Backoff time.Duration
	// Flight, when non-nil, receives a dump before every reconnect attempt.
	Flight *monitor.FlightRecorder
	// Health, when non-nil, turns new watchdog trips during an exchange into
	// world-wide rollbacks, and is re-armed after every successful resume.
	Health *monitor.Health
	// OnExchange runs after each successful exchange with the live world
	// communicator — this is where a scenario does its cross-process
	// coupling traffic. It executes inside the recovery envelope.
	OnExchange func(world *mpi.Comm, exchange int) error
	// Journal, when non-nil, receives the run's lineage: incarnation starts,
	// world losses (kill -9 detections) vs. failures, resume-point
	// agreements, recoveries, and the final run-complete/run-failed record.
	// Recording an incarnation start bumps the journal's incarnation id,
	// which also labels flight dumps (see monitor.FlightRecorder.SetRunLabels).
	Journal *fleet.Journal
	// Log is the optional structured logger.
	Log *slog.Logger
}

// DefaultMaxRestarts is the per-position restart budget.
const DefaultMaxRestarts = 3

// ErrForeignStore is returned (wrapped) by RunWithRecovery when the store
// already holds a checkpoint at a different exchange than the run enters
// with: recovering from it would jump into another run's state, and the
// store's retention would prune this run's own lower-numbered files first.
var ErrForeignStore = errors.New("core: checkpoint store holds another run's state")

// RunWithRecovery advances the metasolver to the target exchange count,
// checkpointing through ck and surviving faults: any panic or error inside
// an exchange (or a new watchdog trip during it) triggers a flight dump, a
// reload of the last good checkpoint, and continuation. If the store holds
// no checkpoint yet, a baseline is written first so even an exchange-1 fault
// is recoverable; a store whose newest checkpoint is not at the exchange the
// run enters with (a fresh run pointed at a used directory — resume first,
// or use an empty one) is refused with ErrForeignStore. Past that check the
// run is RunDistributed's loop on a one-rank in-process world. Returns the
// first unrecoverable error.
func RunWithRecovery(ck *Checkpointer, exchanges int, opt RecoveryOptions) error {
	if path, c, err := ck.Store.Latest(); err == nil && c.Exchanges != ck.Meta.Exchanges {
		return fmt.Errorf("%w: %s is at exchange %d, the run enters at %d",
			ErrForeignStore, path, c.Exchanges, ck.Meta.Exchanges)
	}
	var hook func(*mpi.Comm, int) error
	if opt.OnExchange != nil {
		hook = func(_ *mpi.Comm, e int) error { return opt.OnExchange(e) }
	}
	return recoverLoop(ck, exchanges, DistributedOptions{
		MaxRestarts: opt.MaxRestarts,
		Flight:      opt.Flight,
		Health:      opt.Health,
		OnExchange:  hook,
		Log:         opt.Log,
	}, func(body func(*mpi.Comm)) error { return mpi.Run(1, body) })
}

// RunDistributed advances this rank's metasolver to the target exchange
// count as one rank of a distributed world, surviving real process deaths:
// when the world fails — locally (a panic, a watchdog trip) or remotely (a
// peer process killed, surfacing as a world-lost fault) — it dumps the
// flight recorder, re-dials the transport, agrees with the surviving and
// relaunched peers on the common newest checkpoint, rolls back to it, and
// continues. Every rank of the world runs this same loop; the per-exchange
// lockstep barrier inside guarantees the ranks advance together, so a
// restart lands all of them on the same exchange. Returns the first
// unrecoverable error (drained restart budget, unusable store, bad config).
func RunDistributed(ck *Checkpointer, exchanges int, opt DistributedOptions) error {
	if opt.Dial == nil {
		return errors.New("core: RunDistributed needs a Dial function")
	}
	if opt.Backoff <= 0 {
		opt.Backoff = 250 * time.Millisecond
	}
	return recoverLoop(ck, exchanges, opt, func(body func(*mpi.Comm)) error {
		tr, err := opt.Dial()
		if err != nil {
			return fmt.Errorf("core: dialing world: %w", err)
		}
		return mpi.RunOn(tr, body)
	})
}

// recoverLoop is the loop both entry points run. run executes one world
// incarnation around the body it is handed and returns why it failed (nil
// once the body reached the target); every failure is classified, dumped and
// charged to the budget, and after opt.Backoff a fresh incarnation starts.
func recoverLoop(ck *Checkpointer, exchanges int, opt DistributedOptions, run func(body func(*mpi.Comm)) error) error {
	maxRestarts := opt.MaxRestarts
	if maxRestarts <= 0 {
		maxRestarts = DefaultMaxRestarts
	}
	if opt.Log == nil {
		opt.Log = ck.Log
	}

	restarts := 0
	highWater := -1
	advanced := false // an exchange has been attempted since entry
	for {
		opt.Journal.Record(fleet.EventIncarnationStart, map[string]any{
			"exchange": ck.Meta.Exchanges,
			"restart":  restarts,
		})
		// Label the black box with the incarnation that would crash into it.
		opt.Flight.SetRunLabels(opt.Journal.Incarnation(), opt.Journal.Transport())

		worldErr := run(func(world *mpi.Comm) {
			incarnation(world, ck, exchanges, opt, &advanced)
		})
		if worldErr == nil {
			opt.Journal.Record(fleet.EventRunComplete, map[string]any{"exchange": ck.Meta.Exchanges})
			return nil
		}

		// Classify before journaling: a world-lost fault is a dead peer (the
		// kill -9 signature), anything else is a local failure.
		var lost *mpi.WorldLostError
		if errors.As(worldErr, &lost) {
			opt.Journal.Record(fleet.EventWorldLost, map[string]any{
				"cause":    lost.Cause.Error(),
				"exchange": ck.Meta.Exchanges,
			})
		} else {
			opt.Journal.Record(fleet.EventWorldFailed, map[string]any{
				"cause":    worldErr.Error(),
				"exchange": ck.Meta.Exchanges,
			})
		}

		// Black box first, while the wreckage is still in memory. (The dump
		// itself is journaled by the FlightRecorder's OnDump hook, wired at
		// startup, so manual dumps are covered too.)
		if path, derr := opt.Flight.Dump(fmt.Sprintf("auto-resume: %v", worldErr), nil); derr == nil && path != "" && opt.Log != nil {
			opt.Log.Info("flight dump written", "path", path)
		}
		if ck.Meta.Exchanges > highWater {
			highWater = ck.Meta.Exchanges
			restarts = 0 // forward progress refills the budget
		}
		if restarts >= maxRestarts {
			opt.Journal.Record(fleet.EventRunFailed, map[string]any{
				"cause":    worldErr.Error(),
				"exchange": ck.Meta.Exchanges,
				"restarts": restarts + 1,
			})
			return fmt.Errorf("core: world at exchange %d failed %d times without progress, giving up: %w",
				ck.Meta.Exchanges, restarts+1, worldErr)
		}
		restarts++
		if opt.Log != nil {
			opt.Log.Warn("world failed; reconnecting",
				"err", worldErr.Error(), "exchange", ck.Meta.Exchanges,
				"restart", restarts, "budget", maxRestarts)
		}
		time.Sleep(opt.Backoff)
	}
}

// incarnation is one life of the world: agree on a common resume point, then
// advance in lockstep until the target. Failures panic — the world runner
// converts the panic into this incarnation's error (and a transport world
// aborts so peers unwind too: coordinated rollback). advanced carries across
// incarnations whether an exchange was ever attempted: only a world that has
// not moved since entry may baseline instead of rolling back.
func incarnation(world *mpi.Comm, ck *Checkpointer, exchanges int, opt DistributedOptions, advanced *bool) {
	latest := -1
	path, c, err := ck.Store.Latest()
	if err == nil {
		latest = c.Exchanges
	}
	// One allreduce computes both the minimum and (negated) maximum of the
	// ranks' newest checkpoints.
	agreed := world.AllreduceInt([]int{latest, -latest}, mpi.MinInt)
	common, newest := agreed[0], -agreed[1]
	opt.Journal.Record(fleet.EventResumeAgreement, map[string]any{
		"latest": latest,
		"common": common,
		"newest": newest,
	})
	switch {
	case newest < 0 && !*advanced:
		// A fresh world: baseline so even an exchange-1 fault is recoverable.
		if _, err := ck.Checkpoint(); err != nil {
			panic(fmt.Errorf("core: writing baseline checkpoint: %w", err))
		}
	case common < 0:
		panic(fmt.Errorf("core: no common checkpoint to roll back to: a rank has none, the world's newest is exchange %d", newest))
	default:
		if common != latest {
			if path, c, err = ck.Store.At(common); err != nil {
				panic(fmt.Errorf("core: rolling back to the world's common exchange %d: %w", common, err))
			}
		}
		if err := ck.restore(path, c); err != nil {
			panic(err)
		}
		opt.Health.Rearm()
		opt.Journal.Record(fleet.EventRecovered, map[string]any{"exchange": common})
	}

	var hook func(exchange int) error
	if opt.OnExchange != nil {
		hook = func(e int) error { return opt.OnExchange(world, e) }
	}
	for ck.Meta.Exchanges < exchanges {
		*advanced = true
		if err := guardedExchange(ck.Meta, opt.Health, hook); err != nil {
			panic(err)
		}
		// Commit with a lockstep barrier: an AllreduceInt of the exchange
		// count both synchronizes the world (bounding checkpoint skew to one
		// period) and detects divergence. Checkpoints are written only after
		// the commit.
		if min := world.AllreduceInt([]int{ck.Meta.Exchanges}, mpi.MinInt)[0]; min != ck.Meta.Exchanges {
			panic(fmt.Errorf("core: exchange lockstep broken: local count %d, world minimum %d", ck.Meta.Exchanges, min))
		}
		if cerr := ck.MaybeCheckpoint(); cerr != nil && opt.Log != nil {
			// A failed write is not fatal to the physics, but it erodes the
			// fault-tolerance contract; surface it loudly.
			opt.Log.Error("checkpoint write failed", "err", cerr.Error())
		}
	}
}

// guardedExchange advances one exchange period and runs the caller's hook
// inside a recover envelope, converting panics to errors and new watchdog
// trips to failures. Error panic values stay in the chain so a supervisor can
// still classify them (errors.As on *mpi.WorldLostError tells a dead peer
// from a local failure).
func guardedExchange(m *Metasolver, health *monitor.Health, hook func(exchange int) error) (err error) {
	attempt := m.Exchanges + 1 // Advance increments the counter mid-flight
	tripsBefore := health.Trips()
	defer func() {
		if r := recover(); r != nil {
			if rerr, ok := r.(error); ok {
				err = fmt.Errorf("core: exchange %d panicked: %w", attempt, rerr)
			} else {
				err = fmt.Errorf("core: exchange %d panicked: %v", attempt, r)
			}
		}
	}()
	if err := m.Advance(1); err != nil {
		return err
	}
	if hook != nil {
		if err := hook(m.Exchanges); err != nil {
			return fmt.Errorf("core: exchange %d diagnostics: %w", m.Exchanges, err)
		}
	}
	if t := health.Trips(); t > tripsBefore {
		return fmt.Errorf("core: %d watchdog trip(s) during exchange %d", t-tripsBefore, m.Exchanges)
	}
	return nil
}
