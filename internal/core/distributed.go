package core

// The distributed recover-and-resume loop: RunWithRecovery's counterpart for
// worlds that span OS processes over a real transport. The failure model
// changes — a killed *process* takes its whole rank with it, and the
// survivors learn about it only through the transport (a stream that died
// without a graceful close) — but the production answer stays the same:
// dump the black box, roll back to the last checkpoint, continue. Two things
// are genuinely new here:
//
//   - reconnection: the world itself must be rebuilt, so the supervisor
//     re-dials the transport (the rendezvous retries while the killed
//     process is relaunched) and re-enters the world body;
//   - consistency: ranks checkpoint independently and a crash can land
//     between one rank's write and another's, so on every (re)connect the
//     ranks agree — one AllreduceInt — on the newest exchange *every* rank
//     has on disk, and each rolls back to exactly that bundle. The store's
//     default retention (newest + predecessor) covers the at-most-one-period
//     skew the per-exchange lockstep barrier allows.

import (
	"errors"
	"fmt"
	"log/slog"
	"time"

	"nektarg/internal/fleet"
	"nektarg/internal/monitor"
	"nektarg/internal/mpi"
)

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
	maxRestarts := opt.MaxRestarts
	if maxRestarts <= 0 {
		maxRestarts = DefaultMaxRestarts
	}
	backoff := opt.Backoff
	if backoff <= 0 {
		backoff = 250 * time.Millisecond
	}
	log := opt.Log
	if log == nil {
		log = ck.Log
	}

	restarts := 0
	highWater := -1
	for {
		opt.Journal.Record(fleet.EventIncarnationStart, map[string]any{
			"exchange": ck.Meta.Exchanges,
			"restart":  restarts,
		})
		// Label the black box with the incarnation that would crash into it.
		opt.Flight.SetRunLabels(opt.Journal.Incarnation(), opt.Journal.Transport())

		var worldErr error
		tr, err := opt.Dial()
		if err != nil {
			worldErr = fmt.Errorf("core: dialing world: %w", err)
		} else {
			worldErr = mpi.RunOn(tr, func(world *mpi.Comm) {
				distributedWorldBody(world, ck, exchanges, opt, log)
			})
		}
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
		if path, derr := opt.Flight.Dump(fmt.Sprintf("distributed auto-resume: %v", worldErr), nil); derr == nil && path != "" && log != nil {
			log.Info("flight dump written", "path", path)
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
			return fmt.Errorf("core: distributed world at exchange %d failed %d times without progress, giving up: %w",
				ck.Meta.Exchanges, restarts+1, worldErr)
		}
		restarts++
		if log != nil {
			log.Warn("world failed; reconnecting",
				"err", worldErr.Error(), "exchange", ck.Meta.Exchanges,
				"restart", restarts, "budget", maxRestarts)
		}
		time.Sleep(backoff)
	}
}

// distributedWorldBody is one incarnation of the world: agree on a common
// resume point, then advance in lockstep until the target. Failures panic —
// mpi.RunOn converts the panic into this incarnation's error and aborts the
// transport so peers unwind too (coordinated rollback).
func distributedWorldBody(world *mpi.Comm, ck *Checkpointer, exchanges int, opt DistributedOptions, log *slog.Logger) {
	latest := -1
	if _, c, err := ck.Store.Latest(); err == nil {
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
	case newest < 0:
		// A genuinely fresh world: baseline so even an exchange-1 fault is
		// recoverable, mirroring RunWithRecovery.
		if _, err := ck.Checkpoint(); err != nil {
			panic(fmt.Errorf("core: writing baseline checkpoint: %w", err))
		}
	case common < 0:
		panic(fmt.Errorf("core: inconsistent checkpoint stores: a rank has none while another is at exchange %d", newest))
	default:
		if _, err := ck.ResumeAt(common); err != nil {
			panic(fmt.Errorf("core: rolling back to the world's common exchange %d: %w", common, err))
		}
		opt.Health.Rearm()
		opt.Journal.Record(fleet.EventRecovered, map[string]any{"exchange": common})
	}

	var hook func(exchange int) error
	if opt.OnExchange != nil {
		hook = func(e int) error { return opt.OnExchange(world, e) }
	}
	for ck.Meta.Exchanges < exchanges {
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
		if cerr := ck.MaybeCheckpoint(); cerr != nil && log != nil {
			log.Error("checkpoint write failed", "err", cerr.Error())
		}
	}
}
