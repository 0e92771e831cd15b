package core

// Performance-history wiring for the metasolver: one sample per due
// coupling exchange into the internal/history plane. The sample carries the
// exchange's wall time (the step-time-regression signal), every stage/gauge/
// traffic aggregate of the metasolver's recorders (EnableTelemetry tracks)
// and the Go runtime signals; the plane derives rates, imbalance ratios and
// rolling baselines from them.
//
// Like telemetry, monitoring, in-situ and audit: disabled means nil. Without
// EnableHistory the Advance loop pays two nil comparisons per exchange and
// zero allocations (pinned by TestHistoryDisabledZeroCost).

import (
	"time"

	"nektarg/internal/history"
)

// EnableHistory attaches a performance-history plane to the metasolver.
// Call it alongside EnableTelemetry (the plane samples the telemetry
// recorders, so without a registry only step time and runtime series are
// recorded) and before Advance. A nil plane disables history.
func (m *Metasolver) EnableHistory(h *history.Plane) {
	m.hist = h
}

// History returns the metasolver's history plane (nil when disabled).
func (m *Metasolver) History() *history.Plane { return m.hist }

// sampleHistory feeds one completed exchange into the plane. elapsed is the exchange's wall time as measured around
// the meta.step span in Advance.
func (m *Metasolver) sampleHistory(elapsed time.Duration) {
	h := m.hist
	if h == nil {
		return
	}
	h.SampleExchange(int64(m.Exchanges), elapsed.Seconds(), m.telemetryRecorders())
}
