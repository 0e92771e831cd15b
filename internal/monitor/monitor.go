// Package monitor is the live half of the observability plane: where
// internal/telemetry records what a run did (post-mortem spans, counters,
// traces), monitor reports what a run is doing — scrapeable Prometheus
// metrics, a health verdict, solver watchdogs, a load-imbalance analyzer and
// a crash flight recorder.
//
// The paper's 131,072-core runs depended on exactly this kind of in-flight
// attribution: which patch is the straggler, is the CG solve diverging, is
// the DPD region leaking particles — answered while the metasolver runs, not
// from a post-mortem trace. The layering is strict:
//
//	recorder  (telemetry.Recorder — single-owner, lock-light, per rank)
//	   ↓ Snapshot()            — deep copy, safe to take mid-step
//	snapshot  (telemetry.Snapshot — immutable aggregate)
//	   ↓ exporter              — Prometheus text / imbalance table / flight JSON
//	HTTP      (/metrics, /healthz, /imbalance, /flight, /debug/pprof)
//
// Watchdog contract: solvers own a *Watchdogs bundle (nil when monitoring is
// off — every probe then costs one nil comparison, the same zero-cost bar as
// telemetry, pinned by TestMonitorDisabledZeroCost). Probes latch per
// watchdog and emit structured Events only on severity transitions; the
// first critical event flips /healthz to 503 for the rest of the run and
// fires the flight recorder.
package monitor

import (
	"io"
	"sync"
	"time"

	"nektarg/internal/telemetry"
)

// Options configures a Monitor.
type Options struct {
	// FlightDir is where flight-*.json dumps land (default ".").
	FlightDir string
}

// SnapshotSource is the in-situ observation surface the monitor serves: the
// insitu package's Observer satisfies it structurally, so monitor never
// imports insitu (which imports core, which imports monitor — the interface
// breaks the cycle at the thinnest point).
type SnapshotSource interface {
	// SnapshotMeta returns the latest frame's metadata and the pipeline's
	// drop/staleness accounting as a JSON document (/snapshot).
	SnapshotMeta() ([]byte, error)
	// SnapshotVTK streams the latest assembled frame as concatenated legacy
	// VTK documents (/snapshot/vtk). An error means no frame exists yet.
	SnapshotVTK(w io.Writer) error
}

// AuditSource is the physics audit surface the monitor serves on GET
// /audit: the audit package's Ledger satisfies it structurally, so monitor
// never imports audit (audit imports monitor for the Stat bridge and the
// watchdog track — the interface breaks the cycle, exactly like
// SnapshotSource does for insitu).
type AuditSource interface {
	// WriteJSON streams the full conservation-ledger status — budgets,
	// latched severities, EMA statistics, byte-leg totals — as one JSON
	// document.
	WriteJSON(w io.Writer) error
}

// HistorySource is the performance-history surface the monitor serves on
// GET /history and GET /anomalies: the history package's Plane satisfies it
// structurally (history imports monitor for the Stat bridge, so the
// interface breaks the cycle the same way AuditSource does for audit).
type HistorySource interface {
	// HistoryJSON renders the time-series document. prefix filters series
	// by name prefix, tier selects the downsample level (negative =
	// auto-fit), maxPoints truncates each series to its newest N entries
	// (0 = unlimited).
	HistoryJSON(prefix string, tier, maxPoints int) ([]byte, error)
	// AnomaliesJSON renders the detected-anomaly log with per-kind totals.
	AnomaliesJSON() ([]byte, error)
}

// Monitor bundles the health state, flight recorder and snapshot source
// behind one HTTP surface. Create with New; all methods are safe for
// concurrent use.
type Monitor struct {
	reg    *telemetry.Registry
	health *Health
	flight *FlightRecorder
	start  time.Time

	mu    sync.Mutex
	stats []func() []Stat // extra metric sources (transport counters, ...)
	snap  SnapshotSource  // in-situ observation surface; nil = 404
	audit AuditSource     // physics audit surface; nil = 404
	hist  HistorySource   // performance history surface; nil = 404
}

// New builds a monitor over a telemetry registry. The registry supplies the
// per-rank recorders whose snapshots feed /metrics, the imbalance analyzer
// and the flight recorder; a nil reg means no tracks. The first critical
// health event automatically fires the flight recorder.
func New(reg *telemetry.Registry, opts Options) *Monitor {
	m := &Monitor{reg: reg, health: NewHealth(), start: time.Now()}
	m.flight = NewFlightRecorder(opts.FlightDir, reg.Recorders, m.health)
	m.health.OnTrip(func(e Event) {
		ev := e
		m.flight.Dump("watchdog:"+e.Watchdog, &ev) //nolint:errcheck // best-effort black box
	})
	// Go runtime gauges ride into /metrics and the fleet publish alongside
	// any producer-registered stats (see runtime.go).
	m.AddStatSource(func() []Stat { return runtimeStats(m.start) })
	return m
}

// Health returns the monitor's health state (watchdog registry).
func (m *Monitor) Health() *Health {
	if m == nil {
		return nil
	}
	return m.health
}

// Flight returns the monitor's flight recorder.
func (m *Monitor) Flight() *FlightRecorder {
	if m == nil {
		return nil
	}
	return m.flight
}

// SetSnapshotSource wires the in-situ observation surface: /snapshot and
// /snapshot/vtk start serving, and flight dumps gain the insitu section.
// nil detaches it again.
func (m *Monitor) SetSnapshotSource(src SnapshotSource) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.snap = src
	m.mu.Unlock()
	if src == nil {
		m.flight.SetInsituSource(nil)
	} else {
		m.flight.SetInsituSource(src.SnapshotMeta)
	}
}

// snapshotSource returns the wired in-situ surface, if any.
func (m *Monitor) snapshotSource() SnapshotSource {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snap
}

// SetAuditSource wires the physics audit surface: GET /audit starts
// serving the conservation-ledger document. nil detaches it again.
func (m *Monitor) SetAuditSource(src AuditSource) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.audit = src
	m.mu.Unlock()
}

// auditSource returns the wired audit surface, if any.
func (m *Monitor) auditSource() AuditSource {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.audit
}

// SetHistorySource wires the performance-history surface: GET /history and
// GET /anomalies start serving. nil detaches it again.
func (m *Monitor) SetHistorySource(src HistorySource) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.hist = src
	m.mu.Unlock()
}

// HistorySource returns the wired performance-history surface, if any (the
// fleet publisher embeds its compact document into each status publish).
func (m *Monitor) HistorySource() HistorySource {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hist
}

// Snapshots captures every track's aggregates at this instant. Safe to call
// while the solvers are mid-step: Recorder.Snapshot serializes against the
// owning goroutine's writes.
func (m *Monitor) Snapshots() []*telemetry.Snapshot {
	if m == nil {
		return nil
	}
	var snaps []*telemetry.Snapshot
	for _, r := range m.reg.Recorders() {
		if s := r.Snapshot(); s != nil {
			snaps = append(snaps, s)
		}
	}
	return snaps
}

// Imbalance runs the load-imbalance analyzer over the current snapshots.
func (m *Monitor) Imbalance() []StageImbalance {
	return AnalyzeImbalance(m.Snapshots())
}
