package monitor

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"nektarg/internal/telemetry"
)

// DefaultFlightSpans is how many trailing span records per track a flight
// dump carries.
const DefaultFlightSpans = 256

// DefaultFlightLimit bounds how many dumps one run may write: the first trip
// is the interesting one; a cascade of secondary trips must not flood the
// disk with near-identical dumps.
const DefaultFlightLimit = 3

// DefaultAnomalyFlightLimit bounds performance-anomaly-triggered dumps
// (DumpAnomaly). It is a separate budget from DefaultFlightLimit on
// purpose: performance anomalies are expected to fire on long healthy runs
// (that is the history plane doing its job), and letting them draw down the
// shared cap would leave nothing for the dump that matters most — the
// watchdog trip or rank panic at the end.
const DefaultAnomalyFlightLimit = 2

// FlightTrack is one track's black-box excerpt: the last spans from the
// telemetry ring plus the full gauge and stage aggregates at dump time.
type FlightTrack struct {
	Track        string                          `json:"track"`
	Spans        []telemetry.SpanRecord          `json:"spans"`
	DroppedSpans int64                           `json:"dropped_spans"`
	Stages       map[string]telemetry.StageStats `json:"stages"`
	Gauges       map[string]telemetry.GaugeStats `json:"gauges"`
}

// FlightDump is the on-disk flight-*.json document: why the recorder fired,
// the health timeline, and every track's recent activity — enough to
// diagnose a dead run without re-running it.
type FlightDump struct {
	Time   time.Time `json:"time"`
	Reason string    `json:"reason"`
	// Incarnation and Transport identify which world incarnation (distributed
	// runs redial after a process loss) and transport kind produced the dump,
	// so post-mortem dumps from restarted ranks are distinguishable.
	Incarnation int              `json:"incarnation,omitempty"`
	Transport   string           `json:"transport,omitempty"`
	Trip        *Event           `json:"trip,omitempty"`
	Verdict     Verdict          `json:"verdict"`
	Events      []Event          `json:"events"`
	Tracks      []FlightTrack    `json:"tracks"`
	Imbalance   []StageImbalance `json:"imbalance,omitempty"`
}

// FlightRecorder dumps the observability black box on watchdog trips and
// rank panics. Safe for concurrent use; a nil recorder ignores every call.
type FlightRecorder struct {
	mu           sync.Mutex
	dir          string
	dumps        []string
	anomalyDumps []string
	source       func() []*telemetry.Recorder
	health       *Health
	now          func() time.Time // test seam

	incarnation int                       // stamped into dumps; see SetRunLabels
	transport   string                    // transport kind ("local", "tcp", ...)
	onDump      func(path, reason string) // fired after each successful dump (fleet journal)
}

// NewFlightRecorder builds a recorder writing into dir (created on demand),
// reading tracks from source and the event timeline from health.
func NewFlightRecorder(dir string, source func() []*telemetry.Recorder, health *Health) *FlightRecorder {
	if dir == "" {
		dir = "."
	}
	return &FlightRecorder{dir: dir, source: source, health: health, now: time.Now}
}

// SetRunLabels stamps subsequent dumps with the current world incarnation id
// and transport kind. The distributed supervisor refreshes it on every
// redial so dumps from restarted worlds are distinguishable.
func (f *FlightRecorder) SetRunLabels(incarnation int, transport string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.incarnation = incarnation
	f.transport = transport
	f.mu.Unlock()
}

// OnDump installs a hook fired (outside the lock) after every successful dump
// with the written path and the reason. The fleet journal records each dump
// as a run event so dumps stay discoverable after the fact.
func (f *FlightRecorder) OnDump(fn func(path, reason string)) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.onDump = fn
	f.mu.Unlock()
}

// Dumps returns the paths written so far against the shared budget
// (watchdog trips, panics, manual dumps).
func (f *FlightRecorder) Dumps() []string {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.dumps...)
}

// AnomalyDumps returns the paths written so far against the anomaly budget.
func (f *FlightRecorder) AnomalyDumps() []string {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.anomalyDumps...)
}

// Dump writes one flight-*.json capturing every track's recent events, gauge
// values and the health history. trip may be nil (manual dump, rank panic).
// Returns the written path; once the per-run dump limit is reached it returns
// "" with no error.
func (f *FlightRecorder) Dump(reason string, trip *Event) (string, error) {
	return f.dump(reason, trip, false)
}

// DumpAnomaly writes a flight dump charged to the separate performance-
// anomaly budget (DefaultAnomalyFlightLimit), so anomaly captures never
// starve the watchdog/panic dumps of the shared cap. The history plane's OnAnomaly
// hook is the caller.
func (f *FlightRecorder) DumpAnomaly(reason string) (string, error) {
	return f.dump(reason, nil, true)
}

func (f *FlightRecorder) dump(reason string, trip *Event, anomaly bool) (string, error) {
	if f == nil {
		return "", nil
	}
	f.mu.Lock()
	if anomaly {
		if len(f.anomalyDumps) >= DefaultAnomalyFlightLimit {
			f.mu.Unlock()
			return "", nil
		}
	} else if len(f.dumps) >= DefaultFlightLimit {
		f.mu.Unlock()
		return "", nil
	}
	dir := f.dir
	incarnation, transport := f.incarnation, f.transport
	onDump := f.onDump
	ts := f.now()
	f.mu.Unlock()

	var recs []*telemetry.Recorder
	if f.source != nil {
		recs = f.source()
	}
	d := &FlightDump{
		Time: ts, Reason: reason, Trip: trip,
		Incarnation: incarnation, Transport: transport,
		Verdict: f.health.Verdict(), Events: f.health.Events(),
	}
	snaps := make([]*telemetry.Snapshot, 0, len(recs))
	for _, r := range recs {
		s := r.Snapshot()
		if s == nil {
			continue
		}
		snaps = append(snaps, s)
		d.Tracks = append(d.Tracks, FlightTrack{
			Track: s.Track, Spans: r.Spans(DefaultFlightSpans), DroppedSpans: r.DroppedSpans(),
			Stages: s.Stages, Gauges: s.Gauges,
		})
	}
	d.Imbalance = AnalyzeImbalance(snaps)

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("monitor: flight dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("flight-%s.json", ts.UTC().Format("20060102T150405.000000000")))
	tmp := path + ".tmp"
	file, err := os.Create(tmp)
	if err != nil {
		return "", fmt.Errorf("monitor: flight dump: %w", err)
	}
	enc := json.NewEncoder(file)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		file.Close()
		os.Remove(tmp)
		return "", fmt.Errorf("monitor: flight dump: %w", err)
	}
	if err := file.Close(); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("monitor: flight dump: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", fmt.Errorf("monitor: flight dump: %w", err)
	}
	f.mu.Lock()
	if anomaly {
		f.anomalyDumps = append(f.anomalyDumps, path)
	} else {
		f.dumps = append(f.dumps, path)
	}
	f.mu.Unlock()
	if onDump != nil {
		onDump(path, reason)
	}
	return path, nil
}
