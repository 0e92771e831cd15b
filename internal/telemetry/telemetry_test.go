package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"
	"unsafe"
)

// TestNilRecorderIsSafeNoOp pins the disabled-sink contract: every method on
// a nil *Recorder (and a nil *Registry) must be callable without panicking.
func TestNilRecorderIsSafeNoOp(t *testing.T) {
	var reg *Registry
	r := reg.NewRecorder("x")
	if r != nil {
		t.Fatal("nil registry must hand out nil recorders")
	}
	if got := reg.Recorders(); got != nil {
		t.Fatalf("nil registry recorders = %v", got)
	}

	sp := r.Begin("stage")
	sp.End()
	r.RecordSpan("stage", 0, time.Second, 0, 1)
	r.CountMessage(LevelL4, OpGather, 128)
	r.Gauge("g", 1)
	r.SetHopClock(func() int { return 7 })
	r.ResetCounters()
	if r.Snapshot() != nil {
		t.Fatal("nil recorder snapshot must be nil")
	}
	if r.Spans(0) != nil || r.DroppedSpans() != 0 {
		t.Fatal("nil recorder must report no spans")
	}
	if r.Track() != "" {
		t.Fatal("nil recorder identity must be empty")
	}
	if r.String() != "telemetry: disabled" {
		t.Fatalf("nil recorder String = %q", r.String())
	}
}

func TestSpanAggregatesExact(t *testing.T) {
	reg := NewRegistry()
	r := reg.NewRecorder("t0")
	r.RecordSpan("work", 0, 2*time.Second, 0, 3)
	r.RecordSpan("work", 2*time.Second, 1*time.Second, 3, 5)
	r.RecordSpan("other", 0, 500*time.Millisecond, 0, 0)

	s := r.Snapshot()
	w := s.Stages["work"]
	if w.Count != 2 || math.Abs(w.Total-3) > 1e-12 {
		t.Fatalf("work stats = %+v", w)
	}
	if w.Min != 1 || w.Max != 2 {
		t.Fatalf("work min/max = %v/%v", w.Min, w.Max)
	}
	if w.Hops != 5 {
		t.Fatalf("work hops = %d, want 5", w.Hops)
	}
	if got := s.StageNames(); len(got) != 2 || got[0] != "other" || got[1] != "work" {
		t.Fatalf("stage names = %v", got)
	}
}

func TestLiveSpanFeedsRingAndAggregates(t *testing.T) {
	reg := NewRegistry()
	r := reg.NewRecorder("t0")
	hops := 0
	r.SetHopClock(func() int { return hops })
	sp := r.Begin("phase")
	hops = 4
	sp.End()
	spans := r.Spans(0)
	if len(spans) != 1 || spans[0].Name != "phase" {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].Hops0 != 0 || spans[0].Hops1 != 4 {
		t.Fatalf("hop capture = %d..%d", spans[0].Hops0, spans[0].Hops1)
	}
	if st := r.Snapshot().Stages["phase"]; st.Count != 1 || st.Hops != 4 {
		t.Fatalf("aggregate = %+v", st)
	}
}

// TestRingWrapKeepsAggregatesExact pins the two-sink design: the bounded ring
// drops old trace records, but stage aggregates never lose a span.
func TestRingWrapKeepsAggregatesExact(t *testing.T) {
	reg := NewRegistry()
	r := reg.NewRecorder("t0")
	const n = DefaultSpanCap + 6
	for i := 0; i < n; i++ {
		r.RecordSpan("s", time.Duration(i)*time.Millisecond, time.Millisecond, 0, 0)
	}
	if got := len(r.Spans(0)); got != DefaultSpanCap {
		t.Fatalf("ring holds %d spans, want %d", got, DefaultSpanCap)
	}
	if r.DroppedSpans() != 6 {
		t.Fatalf("dropped = %d, want 6", r.DroppedSpans())
	}
	// Chronological order preserved across the wrap.
	spans := r.Spans(0)
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].Start {
			t.Fatalf("spans out of order: %+v", spans)
		}
	}
	if st := r.Snapshot().Stages["s"]; st.Count != n {
		t.Fatalf("aggregate count %d survived wrap, want %d", st.Count, n)
	}
}

func TestGaugeStats(t *testing.T) {
	reg := NewRegistry()
	r := reg.NewRecorder("t0")
	for _, v := range []float64{5, 1, 3} {
		r.Gauge("iters", v)
	}
	g := r.Snapshot().Gauges["iters"]
	if g.Count != 3 || g.Sum != 9 || g.Min != 1 || g.Max != 5 || g.Last != 3 {
		t.Fatalf("gauge = %+v", g)
	}
	if g.Mean() != 3 {
		t.Fatalf("mean = %v", g.Mean())
	}
}

func TestTrafficMatrixCounting(t *testing.T) {
	reg := NewRegistry()
	r := reg.NewRecorder("t0")
	r.CountMessage(LevelL4, OpGather, 100)
	r.CountMessage(LevelL4, OpGather, 50)
	r.CountMessage(LevelWorld, OpCoupling, 640)
	s := r.Snapshot()
	if g := s.Traffic[LevelL4][OpGather]; g.Msgs != 2 || g.Bytes != 150 {
		t.Fatalf("L4 gather = %+v", g)
	}
	if c := s.Traffic[LevelWorld][OpCoupling]; c.Msgs != 1 || c.Bytes != 640 {
		t.Fatalf("world coupling = %+v", c)
	}
	if tot := s.Traffic.Total(); tot.Msgs != 3 || tot.Bytes != 790 {
		t.Fatalf("total = %+v", tot)
	}
	// Out-of-range keys are clamped, not dropped.
	r.CountMessage(NumLevels+3, NumOps+3, 8)
	if got := r.Snapshot().Traffic[LevelOther][OpP2P]; got.Msgs != 1 {
		t.Fatalf("clamped cell = %+v", got)
	}
}

type fakeSizer struct{}

func (fakeSizer) TelemetryBytes() int64 { return 123 }

func TestPayloadBytes(t *testing.T) {
	cases := []struct {
		data any
		want int64
	}{
		{nil, 0},
		{[]float64{1, 2, 3}, 24},
		{[]int{1, 2}, 16},
		{[]int32{1, 2}, 8},
		{[]byte("abcd"), 4},
		{"hello", 5},
		{3.14, 8},
		{42, 8},
		{true, 8},
		{fakeSizer{}, 123},
		{[2]float32{1, 2}, 8}, // reflect fallback: array of 4-byte elems
	}
	for _, c := range cases {
		if got := PayloadBytes(c.data); got != c.want {
			t.Errorf("PayloadBytes(%v) = %d, want %d", c.data, got, c.want)
		}
	}
}

// TestAggregateAndCouplingFraction builds the paper's coupling-overhead
// metric from synthetic spans: two tracks spend 10s each in meta.step, of
// which 0.2s and 0.3s are meta.exchange — coupling fraction 2.5%.
func TestAggregateAndCouplingFraction(t *testing.T) {
	reg := NewRegistry()
	a := reg.NewRecorder("patch:a")
	b := reg.NewRecorder("patch:b")
	a.RecordSpan("meta.step", 0, 10*time.Second, 0, 0)
	a.RecordSpan("meta.exchange", 0, 200*time.Millisecond, 0, 0)
	b.RecordSpan("meta.step", 0, 10*time.Second, 0, 0)
	b.RecordSpan("meta.exchange", 0, 300*time.Millisecond, 0, 0)
	a.Gauge("iters", 10)
	b.Gauge("iters", 20)
	a.CountMessage(LevelWorld, OpCoupling, 64)
	b.CountMessage(LevelWorld, OpCoupling, 64)

	cs := AggregateRecorders(reg.Recorders())
	if cs.Tracks != 2 {
		t.Fatalf("tracks = %d", cs.Tracks)
	}
	if frac := cs.CouplingFraction("meta.exchange", "meta.step"); math.Abs(frac-0.025) > 1e-12 {
		t.Fatalf("coupling fraction = %v, want 0.025", frac)
	}
	st := cs.Stage("meta.exchange")
	if st == nil || st.Count != 2 || st.Tracks != 2 {
		t.Fatalf("exchange stage = %+v", st)
	}
	if math.Abs(st.TotalMin-0.2) > 1e-12 || math.Abs(st.TotalMax-0.3) > 1e-12 {
		t.Fatalf("exchange min/max = %v/%v", st.TotalMin, st.TotalMax)
	}
	if math.Abs(st.Imbalance-0.3/0.25) > 1e-12 {
		t.Fatalf("imbalance = %v, want 1.2", st.Imbalance)
	}
	if len(cs.Gauges) != 1 || cs.Gauges[0].Name != "iters" {
		t.Fatalf("gauges = %+v", cs.Gauges)
	}
	if g := cs.Gauges[0]; g.Count != 2 || g.Mean != 15 || g.Min != 10 || g.Max != 20 {
		t.Fatalf("gauge = %+v", g)
	}
	if tr := cs.Traffic[LevelWorld][OpCoupling]; tr.Msgs != 2 || tr.Bytes != 128 {
		t.Fatalf("traffic = %+v", tr)
	}
	// Absent stage names fall back to zero fraction, not NaN/panic.
	if f := cs.CouplingFraction("nope", "meta.step"); f != 0 {
		t.Fatalf("absent stage fraction = %v", f)
	}
	// Formatting smoke tests: tables must render without panicking.
	for _, s := range []string{cs.FormatStageTable(), cs.FormatTrafficTable(), cs.FormatGaugeTable()} {
		if len(s) == 0 {
			t.Fatal("empty table rendering")
		}
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	reg := NewRegistry()
	a := reg.NewRecorder("rank0")
	b := reg.NewRecorder("rank1")
	a.RecordSpan("ns.step", 0, time.Millisecond, 0, 2)
	a.RecordSpan("ns.pressure", 100*time.Microsecond, 300*time.Microsecond, 0, 1)
	b.RecordSpan("dpd.step", 0, 2*time.Millisecond, 0, 0)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, reg.Recorders()); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TID  int            `json:"tid"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var x, m int
	for _, e := range tf.TraceEvents {
		switch e.Ph {
		case "X":
			x++
		case "M":
			m++
		}
	}
	if x != 3 {
		t.Fatalf("complete events = %d, want 3", x)
	}
	if m < 2 {
		t.Fatalf("metadata events = %d, want >= 2 (one thread_name per track)", m)
	}
	// Spot-check microsecond conversion on the 300µs span.
	found := false
	for _, e := range tf.TraceEvents {
		if e.Ph == "X" && e.Name == "ns.pressure" {
			found = true
			if math.Abs(e.TS-100) > 1e-9 || math.Abs(e.Dur-300) > 1e-9 {
				t.Fatalf("ns.pressure ts/dur = %v/%v µs, want 100/300", e.TS, e.Dur)
			}
		}
	}
	if !found {
		t.Fatal("ns.pressure event missing")
	}
}

func TestWriteSummaryRoundTrips(t *testing.T) {
	reg := NewRegistry()
	r := reg.NewRecorder("rank0")
	r.RecordSpan("s", 0, time.Second, 0, 0)
	r.Gauge("g", 2)
	var buf bytes.Buffer
	if err := WriteSummary(&buf, reg.Recorders()); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Cluster *ClusterStats `json:"cluster"`
		Tracks  []*Snapshot   `json:"tracks"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("summary is not valid JSON: %v", err)
	}
	if out.Cluster == nil || out.Cluster.Stage("s") == nil {
		t.Fatalf("cluster stats missing stage: %+v", out.Cluster)
	}
	if len(out.Tracks) != 1 || out.Tracks[0].Track != "rank0" {
		t.Fatalf("tracks = %+v", out.Tracks)
	}
}

func TestResetCounters(t *testing.T) {
	reg := NewRegistry()
	r := reg.NewRecorder("t0")
	r.RecordSpan("s", 0, time.Second, 0, 0)
	r.Gauge("g", 1)
	r.CountMessage(LevelL3, OpBcast, 10)
	r.ResetCounters()
	s := r.Snapshot()
	if len(s.Stages) != 0 || len(s.Gauges) != 0 || s.Traffic.Total().Msgs != 0 {
		t.Fatalf("reset left state: %+v", s)
	}
	if len(r.Spans(0)) != 0 || r.DroppedSpans() != 0 {
		t.Fatal("reset left spans")
	}
}

// TestSpanRingCostsWhatItHolds pins the ring's memory rule: a 32-byte
// pointer-free record, no chunk before the first span, capacity within one
// chunk of what is held and never past DefaultSpanCap, and Begin/End on a
// full ring allocating nothing.
func TestSpanRingCostsWhatItHolds(t *testing.T) {
	if sz := unsafe.Sizeof(spanRec{}); sz > 32 {
		t.Fatalf("ring record is %d bytes, want at most 32", sz)
	}
	rt := reflect.TypeOf(spanRec{})
	for i := 0; i < rt.NumField(); i++ {
		switch k := rt.Field(i).Type.Kind(); k {
		case reflect.Int32, reflect.Int64, reflect.Uint32:
		default:
			t.Fatalf("ring record field %s is a %s; the record must hold no pointer", rt.Field(i).Name, k)
		}
	}

	reg := NewRegistry()
	if r := reg.NewRecorder("fresh"); len(r.chunks) != 0 {
		t.Fatalf("fresh recorder holds %d chunks, want none", len(r.chunks))
	}
	for _, k := range []int{1, 1000, DefaultSpanCap, DefaultSpanCap + 5000} {
		r := reg.NewRecorder("k")
		for i := 0; i < k; i++ {
			r.RecordSpan("s", time.Duration(i), 1, 0, 0)
		}
		capacity := len(r.chunks) * spanChunk
		if capacity >= k+spanChunk || capacity > DefaultSpanCap {
			t.Errorf("after %d spans the ring holds room for %d records, want < %d and <= %d",
				k, capacity, k+spanChunk, DefaultSpanCap)
		}
	}

	r := reg.NewRecorder("full")
	for i := 0; i < DefaultSpanCap; i++ {
		r.Begin("s").End()
	}
	if allocs := testing.AllocsPerRun(1000, func() { r.Begin("s").End() }); allocs != 0 {
		t.Fatalf("Begin/End on a full ring allocates %.1f objects, want 0", allocs)
	}
}

// TestSpansNewest pins Spans(n): the newest n records in order, across the
// wrap seam, with 0 or an oversized n meaning all of them, and a hop advance
// past the int32 range saturating instead of wrapping.
func TestSpansNewest(t *testing.T) {
	r := NewRegistry().NewRecorder("t0")
	const n = DefaultSpanCap + 100
	for i := 0; i < n; i++ {
		r.RecordSpan("s", time.Duration(i), 1, i, i+1)
	}
	all := r.Spans(0)
	if len(all) != DefaultSpanCap || all[0].Start != n-DefaultSpanCap || all[len(all)-1].Start != n-1 {
		t.Fatalf("Spans(0) = %d records from %d to %d", len(all), all[0].Start, all[len(all)-1].Start)
	}
	last := r.Spans(256)
	if !reflect.DeepEqual(last, all[len(all)-256:]) {
		t.Fatal("Spans(256) is not the tail of Spans(0)")
	}
	if got := r.Spans(n + 1); !reflect.DeepEqual(got, all) {
		t.Fatal("Spans(n > held) is not Spans(0)")
	}

	r = NewRegistry().NewRecorder("t1")
	r.RecordSpan("far", 0, 1, 0, math.MaxInt32+10)
	if sp := r.Spans(0)[0]; sp.Hops1 != math.MaxInt32 {
		t.Fatalf("saturated hop advance = %d, want %d", sp.Hops1, math.MaxInt32)
	}
	if st := r.Snapshot().Stages["far"]; st.Hops != math.MaxInt32+10 {
		t.Fatalf("aggregate hops = %d, want the exact advance", st.Hops)
	}
}
