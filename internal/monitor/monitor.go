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
// Observer planes (the audit ledger, the history plane, the in-situ
// observer) join through one seam, Attach: each brings its routes and its
// metric samples, and a route whose plane is not attached answers 404.
//
// Watchdog contract: solvers own a *Watchdogs bundle (nil when monitoring is
// off — every probe then costs one nil comparison, the same zero-cost bar as
// telemetry, pinned by TestMonitorDisabledZeroCost). Probes latch per
// watchdog and emit structured Events only on severity transitions; the
// first critical event flips /healthz to 503 for the rest of the run and
// fires the flight recorder.
package monitor

import (
	"net/http"
	"sort"
	"sync"
	"time"

	"nektarg/internal/telemetry"
)

// Options configures a Monitor.
type Options struct {
	// FlightDir is where flight-*.json dumps land (default ".").
	FlightDir string
}

// Plane is an observer plane the monitor serves: the audit ledger, the
// performance-history plane and the in-situ observer each render their own
// routes next to the data the routes show, and bring their own metric
// samples. The planes import monitor (for Stat), so monitor never names them.
type Plane interface {
	// Routes maps each path the plane serves to its handler.
	Routes() map[string]http.HandlerFunc
	// Stats returns the plane's samples for /metrics and the fleet publish;
	// it is polled at scrape time and must be safe for concurrent calls.
	Stats() []Stat
}

// Monitor bundles the health state, the flight recorder and the attached
// planes behind one HTTP surface. Create with New; all methods are safe for
// concurrent use.
type Monitor struct {
	reg    *telemetry.Registry
	health *Health
	flight *FlightRecorder
	start  time.Time

	mu     sync.Mutex
	stats  []func() []Stat             // extra metric sources (planes, transport counters, ...)
	routes map[string]http.HandlerFunc // attached planes' routes by path
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

// Attach mounts a plane: its routes join the HTTP surface, also while Serve
// is running, and its stats join /metrics and the fleet publish.
func (m *Monitor) Attach(p Plane) {
	if m == nil {
		return
	}
	m.AddStatSource(p.Stats)
	routes := p.Routes()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.routes == nil {
		m.routes = map[string]http.HandlerFunc{}
	}
	for path, h := range routes {
		m.routes[path] = h
	}
}

// route returns the attached handler serving path, nil when no plane
// serves it.
func (m *Monitor) route(path string) http.HandlerFunc {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.routes[path]
}

// mounted returns the attached planes' paths, sorted.
func (m *Monitor) mounted() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	paths := make([]string, 0, len(m.routes))
	for path := range m.routes {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	return paths
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
