// Package telemetry is the per-rank instrumentation layer of the metasolver:
// nestable stage timers (spans) with monotonic clocks and hop-clock capture,
// message/byte counters keyed by communicator level and collective kind, and
// solver-domain gauges (CG iterations, DPD particle turnover). It exists
// because the paper's headline claims are observability claims — MCI coupling
// overhead below ~2-3% of step time, the 3-step gather/root-exchange/scatter
// dominating interface cost, per-stage timing justifying the metasolver
// design — and none of them can be reproduced or regression-tracked without a
// measurement substrate.
//
// # Design
//
//   - A Registry owns one shared epoch and hands out per-track Recorders. A
//     track is one timeline: an mpi rank, a continuum patch, a DPD region, or
//     the metasolver's coupling thread. Each Recorder is single-owner: exactly
//     one goroutine writes it (matching the one-goroutine-per-rank runtime);
//     aggregation happens after the owning goroutines quiesce.
//
//   - Spans are recorded into a bounded ring buffer (for Chrome trace export)
//     and simultaneously folded into exact per-stage aggregates (count, total,
//     min, max) that never suffer ring wrap-around. Span values are plain
//     structs; Begin/End allocate only to name a new stage or to open a new
//     ring chunk, so on a full ring they allocate nothing.
//
//   - Traffic counters are a fixed [level][op] matrix of message/byte tallies,
//     bumped by the mpi runtime on every send. Bytes are counted once, at the
//     sending rank, so cluster-wide sums are exact (no double counting).
//
//   - Disabled means nil. Every method on a nil *Recorder is a safe no-op
//     consisting of one pointer comparison, so instrumented hot paths cost
//     nothing when telemetry is off. This contract is pinned by
//     TestDisabledPathNearZeroCost, which `make verify` runs.
package telemetry

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"time"
)

// Level identifies the MCI communicator level traffic belongs to (§3.1:
// World, topology-oriented L2, task-oriented L3, interface-oriented L4).
type Level uint8

// Communicator levels. LevelOther covers communicators created outside the
// MCI naming scheme.
const (
	LevelWorld Level = iota
	LevelL2
	LevelL3
	LevelL4
	LevelOther
	NumLevels
)

// String returns the level's display name.
func (l Level) String() string {
	switch l {
	case LevelWorld:
		return "World"
	case LevelL2:
		return "L2"
	case LevelL3:
		return "L3"
	case LevelL4:
		return "L4"
	default:
		return "other"
	}
}

// Op identifies the kind of communication a message belongs to: plain
// point-to-point, reserved-band coupling traffic (the MCI root-to-root
// exchange), or one of the collective algorithms.
type Op uint8

// Traffic kinds. OpCoupling is reserved-band point-to-point traffic — the
// step-2 root exchange of the MCI 3-step protocol.
const (
	OpP2P Op = iota
	OpCoupling
	OpBarrier
	OpBcast
	OpGather
	OpScatter
	OpReduce
	OpAllreduce
	OpAllgather
	OpAlltoall
	NumOps
)

// String returns the op's display name.
func (o Op) String() string {
	switch o {
	case OpP2P:
		return "p2p"
	case OpCoupling:
		return "coupling"
	case OpBarrier:
		return "barrier"
	case OpBcast:
		return "bcast"
	case OpGather:
		return "gather"
	case OpScatter:
		return "scatter"
	case OpReduce:
		return "reduce"
	case OpAllreduce:
		return "allreduce"
	case OpAllgather:
		return "allgather"
	case OpAlltoall:
		return "alltoall"
	default:
		return "?"
	}
}

// Traffic tallies messages and payload bytes for one (level, op) cell.
type Traffic struct {
	Msgs  int64 `json:"msgs"`
	Bytes int64 `json:"bytes"`
}

// TrafficMatrix is the full per-recorder accounting grid.
type TrafficMatrix [NumLevels][NumOps]Traffic

// add accumulates another matrix into this one.
func (m *TrafficMatrix) add(o *TrafficMatrix) {
	for l := range m {
		for op := range m[l] {
			m[l][op].Msgs += o[l][op].Msgs
			m[l][op].Bytes += o[l][op].Bytes
		}
	}
}

// Total sums the whole matrix.
func (m *TrafficMatrix) Total() Traffic {
	var t Traffic
	for l := range m {
		for op := range m[l] {
			t.Msgs += m[l][op].Msgs
			t.Bytes += m[l][op].Bytes
		}
	}
	return t
}

// SpanRecord is one finished span in the ring buffer. Times are nanoseconds
// since the registry epoch, so spans from different recorders of one registry
// share a timeline.
type SpanRecord struct {
	Name       string
	Start, Dur int64 // ns since epoch / ns duration
	Hops0      int   // hop clock at Begin (0 without a hop source)
	Hops1      int   // hop clock at End
}

// StageStats is the exact running aggregate for one span name. It is immune
// to ring-buffer wrap-around: every End folds into it.
type StageStats struct {
	Count int64   `json:"count"`
	Total float64 `json:"total_s"` // seconds
	Min   float64 `json:"min_s"`
	Max   float64 `json:"max_s"`
	Hops  int64   `json:"hops"` // hop-clock advance attributed to the stage
}

// GaugeStats summarizes a scalar series (CG iterations per solve, particles
// per step, ...) without storing it.
type GaugeStats struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Last  float64 `json:"last"`
}

// Mean returns Sum/Count (0 when empty).
func (g GaugeStats) Mean() float64 {
	if g.Count == 0 {
		return 0
	}
	return g.Sum / float64(g.Count)
}

func (g *GaugeStats) add(v float64) {
	if g.Count == 0 {
		g.Min, g.Max = v, v
	} else {
		if v < g.Min {
			g.Min = v
		}
		if v > g.Max {
			g.Max = v
		}
	}
	g.Count++
	g.Sum += v
	g.Last = v
}

// DefaultSpanCap is the ring-buffer capacity per recorder. A held record
// costs 32 bytes and the ring grows in spanChunk-record chunks as spans
// arrive, so a track holds nothing before its first span and at most 1 MiB
// of trace; aggregates remain exact past the horizon, only trace detail is
// dropped.
const DefaultSpanCap = 1 << 15

// spanChunk is the number of records per ring chunk (32 KiB each).
const spanChunk = 1 << 10

// spanRec is a held ring record: pointer-free, so the collector never scans
// the ring, and 32 bytes. SpanRecords are rebuilt from it by Spans.
type spanRec struct {
	start, dur, hops0 int64
	stage             uint32 // index into the recorder's stage table
	hops              int32  // hop advance, saturated to the int32 range
}

// stageEntry is one row of a recorder's stage table.
type stageEntry struct {
	name string
	StageStats
}

// Registry owns a shared epoch and the set of recorders of one run. All
// methods are safe for concurrent use; the zero value is not usable — call
// NewRegistry.
type Registry struct {
	mu    sync.Mutex
	epoch time.Time
	recs  []*Recorder
}

// NewRegistry creates a registry whose epoch is now.
func NewRegistry() *Registry {
	return &Registry{epoch: time.Now()}
}

// NewRecorder creates a recorder on a new track. A nil registry returns a nil
// recorder, which is the disabled sink: every Recorder method tolerates nil,
// so call sites never branch on whether telemetry is on.
func (g *Registry) NewRecorder(track string) *Recorder {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	r := &Recorder{
		track: track,
		tid:   len(g.recs),
		epoch: g.epoch,
		gauge: map[string]*GaugeStats{},
	}
	g.recs = append(g.recs, r)
	return r
}

// Recorders returns the registry's recorders in creation order.
func (g *Registry) Recorders() []*Recorder {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]*Recorder(nil), g.recs...)
}

// Recorder is one track's telemetry sink. It is single-owner for writes:
// exactly one goroutine may record into it at a time (per-rank usage). Reads
// (Snapshot, Spans) are safe from any goroutine — a light mutex serializes
// them against the owner's writes so the live monitor can scrape a running
// rank without racing it. A nil *Recorder is the disabled sink — every method
// is a no-op costing one nil check, taken before the lock, so the disabled
// path stays lock-free (pinned by TestDisabledPathNearZeroCost).
type Recorder struct {
	track    string
	tid      int
	epoch    time.Time
	hopClock func() int

	mu      sync.Mutex // guards everything below (writer vs live scrape)
	chunks  [][]spanRec
	held    int // records in the ring, at most DefaultSpanCap
	head    int // oldest record once the ring is full
	dropped int64

	traffic TrafficMatrix
	stages  []stageEntry // stage table, in first-seen order
	gauge   map[string]*GaugeStats
}

// Track returns the recorder's track name.
func (r *Recorder) Track() string {
	if r == nil {
		return ""
	}
	return r.track
}

// SetHopClock installs a hop-clock source (e.g. an mpi.Comm's Hops method);
// spans then capture critical-path depth alongside wall time.
func (r *Recorder) SetHopClock(fn func() int) {
	if r == nil {
		return
	}
	r.hopClock = fn
}

func (r *Recorder) hops() int {
	if r.hopClock == nil {
		return 0
	}
	return r.hopClock()
}

// Span is an open stage timer. The zero Span (from a nil recorder) is inert.
type Span struct {
	r     *Recorder
	name  string
	start time.Time
	hops0 int
}

// Begin opens a span. On a nil recorder it returns an inert span without
// touching the clock.
func (r *Recorder) Begin(name string) Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, name: name, start: time.Now(), hops0: r.hops()}
}

// End closes the span, pushing a trace record and folding the duration into
// the stage aggregate. End on an inert span is a no-op.
func (sp Span) End() {
	r := sp.r
	if r == nil {
		return
	}
	r.endSpan(sp)
}

// endSpan is End's enabled path, kept out of End itself so the nil check
// stays within the inlining budget: the disabled path must compile to an
// inlined nil comparison even with the scrape lock below (the race detector
// charges a full function-entry instrumentation to any out-of-line call,
// which alone would blow the TestDisabledPathNearZeroCost budget).
func (r *Recorder) endSpan(sp Span) {
	now := time.Now()
	h1 := r.hops()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.record(sp.name, sp.start.Sub(r.epoch), now.Sub(sp.start), sp.hops0, h1)
}

// RecordSpan records a fully specified span without consulting the clock —
// the entry point for synthetic spans (tests) and offline import.
func (r *Recorder) RecordSpan(name string, start, dur time.Duration, hops0, hops1 int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.record(name, start, dur, hops0, hops1)
}

// record pushes a trace record and folds the span into its stage aggregate.
// The caller holds r.mu.
func (r *Recorder) record(name string, start, dur time.Duration, hops0, hops1 int) {
	i := r.stageIndex(name)
	adv := max(min(hops1-hops0, math.MaxInt32), math.MinInt32)
	r.push(spanRec{start: start.Nanoseconds(), dur: dur.Nanoseconds(), hops0: int64(hops0), stage: i, hops: int32(adv)})
	st := &r.stages[i].StageStats
	d := dur.Seconds()
	if st.Count == 0 {
		st.Min, st.Max = d, d
	} else {
		if d < st.Min {
			st.Min = d
		}
		if d > st.Max {
			st.Max = d
		}
	}
	st.Count++
	st.Total += d
	st.Hops += int64(hops1 - hops0)
}

// stageIndex returns name's row in the stage table, appending one if it is
// new. A linear scan: a track has a handful of stages, named by constants.
func (r *Recorder) stageIndex(name string) uint32 {
	for i := range r.stages {
		if r.stages[i].name == name {
			return uint32(i)
		}
	}
	r.stages = append(r.stages, stageEntry{name: name})
	return uint32(len(r.stages) - 1)
}

// push appends to the span ring, allocating a chunk when the filled ones
// are exhausted and overwriting the oldest record once DefaultSpanCap are
// held.
func (r *Recorder) push(rec spanRec) {
	pos := r.held
	if r.held == DefaultSpanCap {
		pos = r.head
		r.head = (r.head + 1) % DefaultSpanCap
		r.dropped++
	} else {
		if pos == len(r.chunks)*spanChunk {
			r.chunks = append(r.chunks, make([]spanRec, spanChunk))
		}
		r.held++
	}
	r.chunks[pos/spanChunk][pos%spanChunk] = rec
}

// Spans returns the newest n buffered span records (all of them when n is 0
// or exceeds the count held) in chronological order.
func (r *Recorder) Spans(n int) []SpanRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n <= 0 || n > r.held {
		n = r.held
	}
	out := make([]SpanRecord, n)
	for i := range out {
		pos := (r.head + r.held - n + i) % DefaultSpanCap
		rec := &r.chunks[pos/spanChunk][pos%spanChunk]
		out[i] = SpanRecord{
			Name:  r.stages[rec.stage].name,
			Start: rec.start, Dur: rec.dur,
			Hops0: int(rec.hops0), Hops1: int(rec.hops0) + int(rec.hops),
		}
	}
	return out
}

// DroppedSpans reports how many trace records were overwritten by ring
// wrap-around (aggregates are unaffected).
func (r *Recorder) DroppedSpans() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// CountMessage tallies one sent message of the given size. The mpi runtime
// calls it from Comm.send, so every point-to-point message and every hop of
// every collective is accounted exactly once, at the sender.
func (r *Recorder) CountMessage(level Level, op Op, bytes int64) {
	if r == nil {
		return
	}
	r.countMessage(level, op, bytes)
}

// countMessage is the enabled path (see endSpan for why it is split out).
func (r *Recorder) countMessage(level Level, op Op, bytes int64) {
	if level >= NumLevels {
		level = LevelOther
	}
	if op >= NumOps {
		op = OpP2P
	}
	r.mu.Lock()
	t := &r.traffic[level][op]
	t.Msgs++
	t.Bytes += bytes
	r.mu.Unlock()
}

// Gauge records one sample of a named scalar series.
func (r *Recorder) Gauge(name string, v float64) {
	if r == nil {
		return
	}
	r.recordGauge(name, v)
}

// recordGauge is the enabled path (see endSpan for why it is split out).
func (r *Recorder) recordGauge(name string, v float64) {
	r.mu.Lock()
	g := r.gauge[name]
	if g == nil {
		g = &GaugeStats{}
		r.gauge[name] = g
	}
	g.add(v)
	r.mu.Unlock()
}

// ResetSpans clears the span ring (trace detail) without touching traffic,
// stage or gauge aggregates. The distributed trace writer calls it at each
// world incarnation boundary so a per-incarnation trace file never re-exports
// spans from an earlier incarnation, whose hop clock restarted from zero and
// would confuse cross-process stitching.
func (r *Recorder) ResetSpans() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.chunks, r.held, r.head = nil, 0, 0
}

// ResetCounters zeroes traffic, stage and gauge aggregates and clears the
// span ring; used by tests that want exact deltas around one operation.
func (r *Recorder) ResetCounters() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.traffic = TrafficMatrix{}
	r.stages = nil
	r.gauge = map[string]*GaugeStats{}
	r.chunks, r.held, r.head = nil, 0, 0
	r.dropped = 0
}

// VisitStages calls fn for every stage aggregate under the recorder's lock
// (values are copies; iteration order is unspecified). It exists for the
// history sampler, which reads every aggregate once per exchange and must
// not pay Snapshot's two map allocations each time. fn must not call back
// into the recorder.
func (r *Recorder) VisitStages(fn func(name string, s StageStats)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.stages {
		fn(e.name, e.StageStats)
	}
}

// VisitGauges calls fn for every gauge aggregate under the recorder's lock
// (values are copies; iteration order is unspecified). fn must not call
// back into the recorder.
func (r *Recorder) VisitGauges(fn func(name string, g GaugeStats)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, g := range r.gauge {
		fn(name, *g)
	}
}

// TrafficTotals returns the whole-matrix message/byte totals without
// copying the matrix.
func (r *Recorder) TrafficTotals() Traffic {
	if r == nil {
		return Traffic{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.traffic.Total()
}

// Snapshot captures the recorder's aggregates (deep copy, safe to ship
// through the mpi runtime or mutate).
func (r *Recorder) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{
		Track:         r.track,
		Traffic:       r.traffic,
		Stages:        make(map[string]StageStats, len(r.stages)),
		Gauges:        make(map[string]GaugeStats, len(r.gauge)),
		DroppedEvents: r.dropped,
	}
	for _, e := range r.stages {
		s.Stages[e.name] = e.StageStats
	}
	for k, v := range r.gauge {
		s.Gauges[k] = *v
	}
	return s
}

// Snapshot is a recorder's aggregate state at one instant.
type Snapshot struct {
	Track   string                `json:"track"`
	Traffic TrafficMatrix         `json:"traffic"`
	Stages  map[string]StageStats `json:"stages"`
	Gauges  map[string]GaugeStats `json:"gauges"`
	// DroppedEvents counts span records evicted from the trace ring by
	// wrap-around (aggregates are unaffected; only trace detail is lost).
	// Surfaced as nektarg_telemetry_dropped_events_total so a scrape can
	// tell how much of the trace horizon survives.
	DroppedEvents int64 `json:"dropped_events"`
}

// StageNames returns the snapshot's span names, sorted.
func (s *Snapshot) StageNames() []string {
	names := make([]string, 0, len(s.Stages))
	for n := range s.Stages {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Sizer lets payload types report their own wire size to PayloadBytes; the
// mpi collectives implement it for their internal bundle types so tree
// gathers and scatters are accounted by actual relayed volume.
type Sizer interface {
	TelemetryBytes() int64
}

// PayloadBytes estimates the wire size of a message payload. Exact for the
// numeric slice payloads the solvers exchange ([]float64, []int, []byte,
// strings) and for types implementing Sizer; other slices and structs fall
// back to reflection (shallow size), and anything else counts as one word.
func PayloadBytes(data any) int64 {
	switch v := data.(type) {
	case nil:
		return 0
	case []float64:
		return int64(8 * len(v))
	case []int:
		return int64(8 * len(v))
	case []int32:
		return int64(4 * len(v))
	case []byte:
		return int64(len(v))
	case string:
		return int64(len(v))
	case float64, int, int64, uint64, bool:
		return 8
	case Sizer:
		return v.TelemetryBytes()
	}
	rv := reflect.ValueOf(data)
	switch rv.Kind() {
	case reflect.Slice, reflect.Array:
		if rv.Len() == 0 {
			return 0
		}
		return int64(rv.Len()) * int64(rv.Type().Elem().Size())
	case reflect.Struct:
		return int64(rv.Type().Size())
	case reflect.Ptr:
		if rv.IsNil() {
			return 0
		}
		return PayloadBytes(rv.Elem().Interface())
	default:
		return 8
	}
}

// String renders a one-line recorder summary (diagnostics).
func (r *Recorder) String() string {
	if r == nil {
		return "telemetry: disabled"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.traffic.Total()
	return fmt.Sprintf("telemetry[%s]: %d stages, %d msgs / %d bytes, %d spans buffered (%d dropped)",
		r.track, len(r.stages), t.Msgs, t.Bytes, r.held, r.dropped)
}
