package monitor

import (
	"fmt"
	"math"

	"nektarg/internal/linalg"
)

// Watchdogs is one track's bundle of solver health probes. The solvers call
// its Guard*/Observe* methods from their step loops; each probe folds the
// observation into latched per-watchdog state and emits a structured Event to
// the shared Health only on severity *transitions* (ok→warn, warn→critical,
// →recovered), so a wedged solver produces a handful of events rather than
// one per step.
//
// Like telemetry.Recorder, a Watchdogs value is single-owner: exactly one
// goroutine (the solver's) may call its methods. A nil *Watchdogs is the
// disabled bundle — every method is a no-op costing one nil comparison and
// zero allocations, pinned by TestMonitorDisabledZeroCost in verify.sh.
type Watchdogs struct {
	h     *Health
	track string

	particleRef float64               // slowly adapting particle-count reference (EMA)
	state       map[latchKey]Severity // latched severity per probe
}

// The probes' thresholds.
const (
	divergeFactor = 10.0 // cg-watch: residual > factor × initial ⇒ critical
	driftWarn     = 0.2  // particle-drift: |n−ref|/ref beyond this ⇒ warn
	driftCritical = 0.5  // particle-drift: beyond this ⇒ critical
	driftAlpha    = 0.05 // particle-drift: EMA adaptation rate of the reference
	driftMinRef   = 32.0 // particle-drift: reference below this ⇒ track only, no judgement
	cflWarnFrac   = 0.9  // cfl-watch: cfl > frac × limit ⇒ warn
)

// latchKey names one latch: the probe kind ("cfl", "cg", "nan", "drift") and
// the stage or field it watches. A struct, not a concatenated string, so the
// per-step lookup on the healthy path allocates nothing.
type latchKey struct{ kind, subject string }

// Watch creates a watchdog bundle reporting to this health state under the
// given track name. A nil Health returns a nil bundle, keeping every probe on
// the zero-cost disabled path.
func (h *Health) Watch(track string) *Watchdogs {
	if h == nil {
		return nil
	}
	return &Watchdogs{h: h, track: track, state: map[latchKey]Severity{}}
}

// Rearm clears the latched severities and the particle-count reference.
// The critical latch intentionally survives probe recovery — but when a
// checkpoint restore rolls the solver state back to before the corruption,
// the latched timeline no longer exists: without re-arming, a fault that
// recurs after resume would trip silently (no transition, no new Health
// event) and the recovery loop could not see it. The Health event history
// keeps the old trips as an audit trail; only the transition state resets.
// Call between steps only (Watchdogs is single-owner).
func (w *Watchdogs) Rearm() {
	if w == nil {
		return
	}
	clear(w.state)
	w.particleRef = 0
}

// transition latches the severity for key and records an event when it
// changed; msg is formatted only then, so an observation that leaves the
// latch where it was — every call of a healthy run — costs one map lookup.
// Recovery (severity below the latch) emits one info event and re-arms the
// latch — except from critical, which stays latched: a run that corrupted
// state once is not healthy again just because the probe went quiet.
func (w *Watchdogs) transition(key latchKey, watchdog string, sev Severity, value float64, msg func() string) {
	prev := w.state[key]
	if sev == prev {
		return
	}
	if prev == SevCritical {
		return // critical latches for the life of the run
	}
	w.state[key] = sev
	if sev < prev {
		w.h.Record(watchdog, w.track, SevInfo, "recovered: "+msg(), value)
		return
	}
	w.h.Record(watchdog, w.track, sev, msg(), value)
}

// GuardField scans a field for NaN/Inf. On the first non-finite entry it
// records a critical "nan-guard" event and returns an error the solver should
// surface instead of stepping on corrupted state. The scan is O(len) and only
// runs when the bundle is enabled.
func (w *Watchdogs) GuardField(stage, name string, data []float64) error {
	if w == nil {
		return nil
	}
	for i, v := range data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			msg := fmt.Sprintf("non-finite value %v at index %d of field %q in %s", v, i, name, stage)
			w.transition(latchKey{"nan", stage + ":" + name}, "nan-guard", SevCritical, float64(i), func() string { return msg })
			return fmt.Errorf("monitor: %s: %s", w.track, msg)
		}
	}
	return nil
}

// GuardValue checks a single scalar (e.g. a particle coordinate) for NaN/Inf;
// idx identifies the offending element in the caller's structure.
func (w *Watchdogs) GuardValue(stage, name string, v float64, idx int) error {
	if w == nil {
		return nil
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		msg := fmt.Sprintf("non-finite value %v in %q at element %d in %s", v, name, idx, stage)
		w.transition(latchKey{"nan", stage + ":" + name}, "nan-guard", SevCritical, float64(idx), func() string { return msg })
		return fmt.Errorf("monitor: %s: %s", w.track, msg)
	}
	return nil
}

// ObserveSolve feeds one CG outcome into the stagnation/divergence watchdog:
// a non-converged solve (iterations exhausted) is a warn-level stagnation; a
// final residual more than divergeFactor × the initial residual is a
// critical divergence (the solve made things worse).
func (w *Watchdogs) ObserveSolve(stage string, st linalg.SolveStats, maxIter int) {
	if w == nil {
		return
	}
	key := latchKey{"cg", stage}
	if math.IsNaN(st.Residual) || math.IsInf(st.Residual, 0) {
		w.transition(key, "cg-watch", SevCritical, st.Residual, func() string {
			return fmt.Sprintf("%s: non-finite residual after %d iterations", stage, st.Iterations)
		})
		return
	}
	if init := st.Initial; init > 0 && st.Residual > divergeFactor*init {
		w.transition(key, "cg-watch", SevCritical, st.Residual, func() string {
			return fmt.Sprintf("%s: diverged: residual %.3g > %g x initial %.3g", stage, st.Residual, divergeFactor, init)
		})
		return
	}
	if !st.Converged {
		w.transition(key, "cg-watch", SevWarn, st.Residual, func() string {
			return fmt.Sprintf("%s: stagnated at residual %.3g after %d/%d iterations", stage, st.Residual, st.Iterations, maxIter)
		})
		return
	}
	w.transition(key, "cg-watch", SevInfo, st.Residual, func() string {
		return fmt.Sprintf("%s: converged (residual %.3g)", stage, st.Residual)
	})
}

// ObserveCFL feeds a CFL number against its stability limit: above the limit
// is critical, above cflWarnFrac × limit is a warn.
func (w *Watchdogs) ObserveCFL(stage string, cfl, limit float64) {
	if w == nil {
		return
	}
	key := latchKey{"cfl", stage}
	switch {
	case math.IsNaN(cfl) || cfl > limit:
		w.transition(key, "cfl-watch", SevCritical, cfl, func() string {
			return fmt.Sprintf("%s: CFL %.3f exceeds stability limit %.3f", stage, cfl, limit)
		})
	case cfl > cflWarnFrac*limit:
		w.transition(key, "cfl-watch", SevWarn, cfl, func() string {
			return fmt.Sprintf("%s: CFL %.3f within %.0f%% of limit %.3f", stage, cfl, 100*(1-cflWarnFrac), limit)
		})
	default:
		w.transition(key, "cfl-watch", SevInfo, cfl, func() string {
			return fmt.Sprintf("%s: CFL %.3f", stage, cfl)
		})
	}
}

// ObserveParticles feeds the current particle count of an open-boundary DPD
// region. The first observation seeds a slowly adapting reference (an
// exponential moving average with rate driftAlpha); per-step drift beyond
// driftWarn/driftCritical relative to that reference raises the corresponding
// severity. The EMA matters: an open region legitimately equilibrates toward
// the flux-BC target density over hundreds of steps, which a fixed baseline
// would misreport as a leak, while a genuine flux-BC leak (insertions ≠
// deletions, a step change in count) outruns the reference and still trips.
func (w *Watchdogs) ObserveParticles(n int) {
	if w == nil {
		return
	}
	if w.particleRef == 0 {
		w.particleRef = float64(n)
		return
	}
	// Below driftMinRef the relative drift of an open region is statistical
	// noise — a flux-fed box filling from 1 to 2 particles is a 100% "jump"
	// that means nothing. Track the reference but pass no judgement until
	// the population carries signal.
	if w.particleRef < driftMinRef {
		w.particleRef += float64(driftAlpha * (float64(n) - w.particleRef))
		return
	}
	drift := math.Abs(float64(n)-w.particleRef) / w.particleRef
	key := latchKey{kind: "drift"}
	jumped := func() string {
		return fmt.Sprintf("particle count %d jumped %.0f%% from reference %.0f", n, 100*drift, w.particleRef)
	}
	switch {
	case drift > driftCritical:
		w.transition(key, "particle-drift", SevCritical, drift, jumped)
	case drift > driftWarn:
		w.transition(key, "particle-drift", SevWarn, drift, jumped)
	default:
		w.transition(key, "particle-drift", SevInfo, drift, func() string {
			return fmt.Sprintf("particle count %d near reference %.0f", n, w.particleRef)
		})
	}
	w.particleRef += float64(driftAlpha * (float64(n) - w.particleRef))
}

// Event records an arbitrary structured health event on this track — the
// escape hatch for solver-specific probes the bundle has no helper for.
func (w *Watchdogs) Event(sev Severity, watchdog, msg string, value float64) {
	if w == nil {
		return
	}
	w.h.Record(watchdog, w.track, sev, msg, value)
}
