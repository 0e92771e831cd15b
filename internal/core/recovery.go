package core

// The recover-and-resume loop: the fault-tolerance counterpart of
// Metasolver.Advance. A multi-day coupled run dies for many reasons — a
// solver blow-up caught by a watchdog, an injected or real rank death
// surfacing as a panic, a transient exchange failure — and the production
// answer is always the same sequence: flush the flight recorder (the black
// box explaining *why*), reload the last good checkpoint, and continue. The
// restart budget is per-position: successful forward progress refills it, a
// fault that deterministically re-fires at the same exchange drains it and
// aborts.

import (
	"errors"
	"fmt"
	"log/slog"

	"nektarg/internal/monitor"
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
// or use an empty one) is refused with ErrForeignStore. Returns the first
// unrecoverable error.
func RunWithRecovery(ck *Checkpointer, exchanges int, opt RecoveryOptions) error {
	maxRestarts := opt.MaxRestarts
	if maxRestarts <= 0 {
		maxRestarts = DefaultMaxRestarts
	}
	log := opt.Log
	if log == nil {
		log = ck.Log
	}

	// Baseline: never enter the loop without something to fall back to.
	if path, c, err := ck.Store.Latest(); err != nil {
		if _, werr := ck.Checkpoint(); werr != nil {
			return fmt.Errorf("core: writing baseline checkpoint: %w", werr)
		}
	} else if c.Exchanges != ck.Meta.Exchanges {
		return fmt.Errorf("%w: %s is at exchange %d, the run enters at %d",
			ErrForeignStore, path, c.Exchanges, ck.Meta.Exchanges)
	}

	restarts := 0
	highWater := ck.Meta.Exchanges
	for ck.Meta.Exchanges < exchanges {
		// Capture the attempted exchange number up front: a failed Advance
		// may or may not have incremented the counter already.
		attempt := ck.Meta.Exchanges + 1
		err := guardedExchange(ck.Meta, opt.Health, opt.OnExchange)
		if err == nil {
			if ck.Meta.Exchanges > highWater {
				highWater = ck.Meta.Exchanges
				restarts = 0 // forward progress refills the budget
			}
			if cerr := ck.MaybeCheckpoint(); cerr != nil {
				// A failed write is not fatal to the physics, but it erodes
				// the fault-tolerance contract; surface it loudly.
				if log != nil {
					log.Error("checkpoint write failed", "err", cerr.Error())
				}
			}
			continue
		}

		// Black box first: dump every rank's recent telemetry while the
		// wreckage is still in memory.
		if path, derr := opt.Flight.Dump(fmt.Sprintf("auto-resume: %v", err), nil); derr == nil && path != "" && log != nil {
			log.Info("flight dump written", "path", path)
		}
		if restarts >= maxRestarts {
			return fmt.Errorf("core: exchange %d failed %d times, giving up: %w",
				attempt, restarts+1, err)
		}
		restarts++
		rpath, rerr := ck.Resume()
		if rerr != nil {
			return errors.Join(
				fmt.Errorf("core: exchange %d failed and no checkpoint is recoverable: %w", attempt, err),
				rerr)
		}
		// The restore succeeded and Resume re-armed the solver watchdogs:
		// the run is healthy again by construction, so acknowledge the trip
		// and let /healthz return to 200 instead of latching on history.
		opt.Health.Rearm()
		if log != nil {
			log.Warn("exchange failed; resumed from last good checkpoint",
				"err", err.Error(), "checkpoint", rpath,
				"exchange", ck.Meta.Exchanges, "restart", restarts, "budget", maxRestarts)
		}
	}
	return nil
}

// guardedExchange advances one exchange period and runs the caller's hook
// inside a recover envelope, converting panics to errors and new watchdog
// trips to failures. Both recovery loops run every exchange through it.
// Error panic values stay in the chain so a supervisor can still classify
// them (errors.As on *mpi.WorldLostError tells a dead peer from a local
// failure).
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
