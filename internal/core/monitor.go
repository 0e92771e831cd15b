package core

// Live-monitoring wiring for the metasolver: one watchdog bundle per track,
// mirroring the telemetry recorder layout (see telemetry.go in this package).
// The monitor's Health hands out nil bundles when monitoring is disabled, so
// every probe in the solvers stays on its nil-receiver no-op path.

import (
	"log/slog"

	"nektarg/internal/monitor"
)

// EnableMonitoring attaches solver watchdogs for every patch, atomistic
// region and registered outlet to the given health state: NaN/Inf field
// guards and CG stagnation/divergence detection on each nektar3d patch,
// particle-count drift and state guards on each DPD region, CFL and field
// guards on each outlet's 1D network. Call it after all of them are
// registered (alongside EnableTelemetry) and before Advance. A
// nil health disables monitoring (all bundles nil).
func (m *Metasolver) EnableMonitoring(h *monitor.Health) {
	m.watch = h.Watch("metasolver")
	for _, p := range m.Patches {
		p.Solver.Watch = h.Watch("patch:" + p.Name)
	}
	for _, a := range m.Atomistic {
		a.Sys.Watch = h.Watch("dpd:" + a.Name)
	}
	for _, o := range m.Outlets {
		o.Network.Watch = h.Watch("1d:" + o.Name())
	}
}

// RearmWatchdogs clears the latched watchdog state of every solver bundle.
// The checkpoint restore path calls this: the rolled-back state predates
// whatever tripped, and a recurrence after resume must transition (and be
// seen by the recovery loop) again. No-op when monitoring is disabled.
func (m *Metasolver) RearmWatchdogs() {
	m.watch.Rearm()
	for _, p := range m.Patches {
		p.Solver.Watch.Rearm()
	}
	for _, a := range m.Atomistic {
		a.Sys.Watch.Rearm()
	}
	for _, o := range m.Outlets {
		o.Network.Watch.Rearm()
	}
}

// SetLogger installs a structured logger on the metasolver; Advance then
// emits leveled, track-tagged progress records (exchange count, solver time,
// coupling outcome) that join with the telemetry and health timelines. Nil
// disables logging.
func (m *Metasolver) SetLogger(l *slog.Logger) {
	if l == nil {
		m.log = nil
		return
	}
	m.log = l.With("track", "metasolver")
}
