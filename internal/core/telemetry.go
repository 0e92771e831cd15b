package core

// Telemetry wiring for the metasolver: one recorder per concurrent track.
//
// The Recorder contract is single-owner-per-goroutine, and the metasolver's
// concurrency model is exactly one goroutine per continuum patch plus the
// caller goroutine (metasolver control flow, DPD regions and the registered
// outlets' 1D networks all run there). EnableTelemetry therefore hands out:
//
//	"metasolver"    — the caller goroutine's control-flow spans
//	                  (meta.step / meta.exchange / meta.advance /
//	                  meta.atomistic / meta.wait),
//	"patch:<name>"  — one per continuum patch (ns.* spans and CG gauges),
//	"dpd:<name>"    — one per atomistic region (dpd.* spans, particle gauges;
//	                  runs on the caller goroutine but gets its own track so
//	                  the trace viewer shows it as a separate row),
//	"1d:<outlet>"   — one per registered outlet's network (1d.* spans).

import (
	"nektarg/internal/telemetry"
)

// EnableTelemetry creates one recorder per track from the registry and
// installs them on the metasolver, every patch solver, every atomistic
// region and every registered outlet's network. Call it after all of them
// are registered and before Advance. A nil registry disables instrumentation (all recorders nil).
func (m *Metasolver) EnableTelemetry(reg *telemetry.Registry) {
	m.rec = reg.NewRecorder("metasolver")
	for _, p := range m.Patches {
		p.Solver.Rec = reg.NewRecorder("patch:" + p.Name)
	}
	for _, a := range m.Atomistic {
		a.Sys.Rec = reg.NewRecorder("dpd:" + a.Name)
	}
	for _, o := range m.Outlets {
		o.Network.Rec = reg.NewRecorder("1d:" + o.Name())
	}
}

// Telemetry returns the metasolver's own recorder (nil when disabled).
func (m *Metasolver) Telemetry() *telemetry.Recorder { return m.rec }

// TelemetryStats aggregates the metasolver's tracks (its own plus every
// patch, region and outlet recorder) into cluster statistics, or nil when telemetry
// is disabled.
func (m *Metasolver) TelemetryStats() *telemetry.ClusterStats {
	recs := m.telemetryRecorders()
	if len(recs) == 0 {
		return nil
	}
	return telemetry.AggregateRecorders(recs)
}

// CouplingOverhead returns the fraction of total step time spent in
// interface exchanges — the paper's "coupling overhead" figure of merit
// (expected at the few-percent level). Zero when telemetry is disabled or no
// steps have run.
func (m *Metasolver) CouplingOverhead() float64 {
	cs := m.TelemetryStats()
	if cs == nil {
		return 0
	}
	return cs.CouplingFraction("meta.exchange", "meta.step")
}

// telemetryRecorders collects the non-nil recorders owned by this metasolver.
func (m *Metasolver) telemetryRecorders() []*telemetry.Recorder {
	var recs []*telemetry.Recorder
	if m.rec != nil {
		recs = append(recs, m.rec)
	}
	for _, p := range m.Patches {
		if p.Solver.Rec != nil {
			recs = append(recs, p.Solver.Rec)
		}
	}
	for _, a := range m.Atomistic {
		if a.Sys.Rec != nil {
			recs = append(recs, a.Sys.Rec)
		}
	}
	for _, o := range m.Outlets {
		if o.Network.Rec != nil {
			recs = append(recs, o.Network.Rec)
		}
	}
	return recs
}
