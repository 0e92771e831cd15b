package history

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"nektarg/internal/telemetry"
)

// testOptions returns a small, fast configuration for unit tests: tiny rings
// so wrap-around is exercised in a few dozen samples, an early-armed detector,
// and no runtime series so the stored series set is exactly what the test fed.
func testOptions() Options {
	return Options{
		RawCap: 8, TierFactor: 2, TierCap: 4, Tiers: 2,
		Warmup: 4, Sustain: 3, Z: 4,
		NoRuntime: true,
	}
}

// --- storage invariants -------------------------------------------------

// TestRingBoundsAndOrder: no matter how many samples a series absorbs, the
// raw ring and every tier ring stay at their configured capacities and read
// back in chronological order.
func TestRingBoundsAndOrder(t *testing.T) {
	p := New(testOptions())
	const n = 100
	for i := 1; i <= n; i++ {
		p.Observe("x", int64(i), float64(i))
	}
	s := p.series["x"]
	if len(s.raw) != 8 {
		t.Fatalf("raw ring holds %d points, want cap 8", len(s.raw))
	}
	pts := s.points()
	for i := 1; i < len(pts); i++ {
		if pts[i].Step <= pts[i-1].Step {
			t.Fatalf("raw points out of order at %d: %+v", i, pts)
		}
	}
	if pts[len(pts)-1].Step != n || pts[0].Step != n-7 {
		t.Fatalf("raw window = [%d,%d], want [%d,%d]", pts[0].Step, pts[len(pts)-1].Step, n-7, n)
	}
	for ti, tr := range s.tiers {
		if len(tr.bins) > 4 {
			t.Fatalf("tier %d holds %d bins, want <= cap 4", ti, len(tr.bins))
		}
		bins := tr.ordered()
		for i := 1; i < len(bins); i++ {
			if bins[i].Step0 <= bins[i-1].Step1 {
				t.Fatalf("tier %d bins overlap at %d: %+v", ti, i, bins)
			}
		}
	}
}

// TestTierEnvelopeConservation: every completed bin carries exactly the
// min/max/sum/count of the raw samples in its window — tiers consume the
// sample stream independently, so raw-ring wrap cannot corrupt them.
func TestTierEnvelopeConservation(t *testing.T) {
	o := testOptions()
	o.TierCap = 64 // keep every bin so all windows can be checked
	p := New(o)
	// A deliberately non-monotone pattern so min != first and max != last.
	vals := []float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 0, 9.5, 1.5, 3.5, 8.5, 2.5, 7.5}
	for i, v := range vals {
		p.Observe("x", int64(i+1), v)
	}
	s := p.series["x"]
	// Tier 0 folds TierFactor (=2) raw samples per bin.
	bins := s.tiers[0].ordered()
	if len(bins) != len(vals)/2 {
		t.Fatalf("tier 0 completed %d bins, want %d", len(bins), len(vals)/2)
	}
	for i, b := range bins {
		a, c := vals[2*i], vals[2*i+1]
		wantMin, wantMax := a, c
		if c < a {
			wantMin, wantMax = c, a
		}
		if b.Min != wantMin || b.Max != wantMax || b.Sum != a+c || b.Count != 2 {
			t.Fatalf("tier 0 bin %d = %+v, want min %g max %g sum %g count 2", i, b, wantMin, wantMax, a+c)
		}
		if b.Step0 != int64(2*i+1) || b.Step1 != int64(2*i+2) {
			t.Fatalf("tier 0 bin %d covers [%d,%d], want [%d,%d]", i, b.Step0, b.Step1, 2*i+1, 2*i+2)
		}
	}
	// Tier 1 folds TierFactor^2 (=4) raw samples per bin.
	for i, b := range s.tiers[1].ordered() {
		win := vals[4*i : 4*i+4]
		wantMin, wantMax, wantSum := win[0], win[0], 0.0
		for _, v := range win {
			if v < wantMin {
				wantMin = v
			}
			if v > wantMax {
				wantMax = v
			}
			wantSum += v
		}
		if b.Min != wantMin || b.Max != wantMax || b.Sum != wantSum || b.Count != 4 {
			t.Fatalf("tier 1 bin %d = %+v, want min %g max %g sum %g count 4", i, b, wantMin, wantMax, wantSum)
		}
	}
}

// TestSummaryExactDespiteWrap: the whole-run Summary never loses samples to
// ring wrap — it is the perf-report currency.
func TestSummaryExactDespiteWrap(t *testing.T) {
	p := New(testOptions())
	var sum float64
	const n = 100
	for i := 1; i <= n; i++ {
		p.Observe("x", int64(i), float64(i))
		sum += float64(i)
	}
	s := p.series["x"].sum
	if s.Count != n || s.Sum != sum || s.Min != 1 || s.Max != n || s.Last != n {
		t.Fatalf("summary = %+v, want count %d sum %g min 1 max %d last %d", s, n, sum, n, n)
	}
	if s.Mean() != sum/n {
		t.Fatalf("mean = %g, want %g", s.Mean(), sum/n)
	}
}

// TestCumulativeSeries: ObserveCum stores per-sample deltas, seeds on first
// observation and re-seeds (without a bogus negative sample) when the counter
// moves backwards — the restore/reset case.
func TestCumulativeSeries(t *testing.T) {
	p := New(testOptions())
	p.ObserveCum("c", 1, 100) // seed
	p.ObserveCum("c", 2, 110) // delta 10
	p.ObserveCum("c", 3, 125) // delta 15
	p.ObserveCum("c", 4, 50)  // backwards: re-seed, no sample
	p.ObserveCum("c", 5, 60)  // delta 10
	pts := p.series["c"].points()
	want := []Point{{Step: 2, V: 10}, {Step: 3, V: 15}, {Step: 5, V: 10}}
	if !reflect.DeepEqual(pts, want) {
		t.Fatalf("cumulative deltas = %+v, want %+v", pts, want)
	}
}

// TestMaxSeriesBound: a gauge-namespace explosion is counted, not stored.
func TestMaxSeriesBound(t *testing.T) {
	o := testOptions()
	o.MaxSeries = 2
	p := New(o)
	p.Observe("a", 1, 1)
	p.Observe("b", 1, 1)
	p.Observe("c", 1, 1)
	if len(p.series) != 2 {
		t.Fatalf("stored %d series, want MaxSeries=2", len(p.series))
	}
	if p.overflow != 1 {
		t.Fatalf("overflow = %d, want 1", p.overflow)
	}
}

// --- detector -----------------------------------------------------------

// feed pushes n identical samples starting at *step, advancing it.
func feed(p *Plane, name string, step *int64, v float64, n int) {
	for i := 0; i < n; i++ {
		*step++
		p.Observe(name, *step, v)
	}
}

// TestDetectorWarmupNeverFires: excursions during warm-up must not alarm —
// the opening samples of a run are flow development, not regression.
func TestDetectorWarmupNeverFires(t *testing.T) {
	o := testOptions()
	o.Warmup = 16
	p := New(o)
	// Wild swings, all inside the warm-up window ("solver.iters" classifies
	// as cg-inflation, an alarmable kind).
	for i := int64(1); i <= 15; i++ {
		v := 10.0
		if i%2 == 0 {
			v = 1000
		}
		p.Observe("solver.iters", i, v)
	}
	if n := p.AnomalyTotal(); n != 0 {
		t.Fatalf("warm-up fired %d anomalies, want 0: %+v", n, p.Anomalies())
	}
}

// TestDetectorSustainedStepChangeFiresOnce is the core contract: a step
// change fires exactly one typed anomaly after Sustain consecutive excursion
// samples, then the baseline re-seeds at the new level and the plateau stays
// quiet.
func TestDetectorSustainedStepChangeFiresOnce(t *testing.T) {
	p := New(testOptions()) // warmup 4, sustain 3, z 4
	var step int64
	feed(p, "solver.iters", &step, 10, 8) // stable baseline, armed after 4
	feed(p, "solver.iters", &step, 30, 20)
	anoms := p.Anomalies()
	if len(anoms) != 1 {
		t.Fatalf("step change fired %d anomalies, want exactly 1: %+v", len(anoms), anoms)
	}
	a := anoms[0]
	if a.Kind != KindCGIteration {
		t.Fatalf("anomaly kind = %s, want %s (suffix .iters)", a.Kind, KindCGIteration)
	}
	if a.Series != "solver.iters" || a.Value != 30 || a.Baseline != 10 {
		t.Fatalf("anomaly = %+v, want series solver.iters value 30 baseline 10", a)
	}
	// The streak started on the first 30-sample (step 9) and completed on
	// the third (step 11).
	if a.Step != 11 {
		t.Fatalf("anomaly fired at step %d, want 11 (sustain 3)", a.Step)
	}
	if a.Z <= 4 {
		t.Fatalf("anomaly z = %g, want > 4", a.Z)
	}
	if a.Sustained != 3 {
		t.Fatalf("anomaly sustained = %d, want 3", a.Sustained)
	}
}

// TestDetectorSingleSpikeDoesNotFire: one-sample noise never completes a
// streak, and the suspect sample is not folded into the baseline.
func TestDetectorSingleSpikeDoesNotFire(t *testing.T) {
	p := New(testOptions())
	var step int64
	feed(p, "solver.iters", &step, 10, 8)
	feed(p, "solver.iters", &step, 1000, 1) // spike
	feed(p, "solver.iters", &step, 10, 8)   // back to normal
	if n := p.AnomalyTotal(); n != 0 {
		t.Fatalf("single spike fired %d anomalies, want 0", n)
	}
	// Freeze-during-streak: the spike was judged against the baseline, not
	// absorbed into it.
	if m := p.series["solver.iters"].det.mean; m != 10 {
		t.Fatalf("baseline mean after spike = %g, want 10 (spike must not be absorbed)", m)
	}
}

// TestDetectorFreezesBaselineDuringStreak pins the refinement directly: while
// a streak is building, the suspect samples must not pull the mean up
// underneath the excursion.
func TestDetectorFreezesBaselineDuringStreak(t *testing.T) {
	d := detector{alpha: 0.05, warmup: 4, sustain: 3, zmax: 4, relFloor: 0.10, absFloor: 2}
	for i := 0; i < 8; i++ {
		d.observe(10)
	}
	if d.mean != 10 {
		t.Fatalf("baseline mean = %g, want 10", d.mean)
	}
	for i := 0; i < 2; i++ { // two suspect samples: streak builds, baseline frozen
		fire, _, _ := d.observe(30)
		if fire {
			t.Fatalf("fired on streak sample %d, want fire on the 3rd", i+1)
		}
		if d.mean != 10 || d.dev != 0 {
			t.Fatalf("baseline moved during streak: mean %g dev %g, want 10/0", d.mean, d.dev)
		}
	}
	fire, z, baseline := d.observe(30)
	if !fire || baseline != 10 || z <= 4 {
		t.Fatalf("3rd streak sample: fire=%v z=%g baseline=%g, want fire against baseline 10", fire, z, baseline)
	}
	// Post-fire: re-seeded at the new level, re-warming.
	if d.mean != 30 || d.n != 1 || d.streak != 0 || d.fired != 1 {
		t.Fatalf("post-fire detector = %+v, want re-seed at 30", d)
	}
}

// TestDetectorWarmupTracksRamp: a run that opens with a development ramp must
// arm with its deviation re-shrunk to plateau noise (the warmupAlpha
// refinement) so a later genuine regression is not drowned in ramp error.
func TestDetectorWarmupTracksRamp(t *testing.T) {
	o := testOptions()
	o.Warmup = 16 // the production default: the ramp must fit inside warm-up
	p := New(o)
	var step int64
	// Opening development ramp 2..16, then the plateau. Warm-up spans both,
	// so by arming time the fast warmupAlpha has pulled the mean onto the
	// plateau and re-shrunk the deviation toward plateau noise.
	for v := 2.0; v <= 16; v += 2 {
		step++
		p.Observe("solver.iters", step, v)
	}
	feed(p, "solver.iters", &step, 16, 14)
	if n := p.AnomalyTotal(); n != 0 {
		t.Fatalf("ramp itself fired %d anomalies, want 0", n)
	}
	// A real regression on top of the plateau still fires — the ramp error
	// did not poison the armed baseline's scale.
	feed(p, "solver.iters", &step, 28, 4)
	if n := p.AnomalyTotal(); n != 1 {
		t.Fatalf("post-ramp regression fired %d anomalies, want 1: %+v", n, p.Anomalies())
	}
}

// TestAnomalyLogRing: the retained log is a ring bounded by MaxAnomalies
// while the totals stay exact.
func TestAnomalyLogRing(t *testing.T) {
	o := testOptions()
	o.Warmup = 2
	o.Sustain = 1
	o.MaxAnomalies = 4
	p := New(o)
	var step int64
	feed(p, "solver.iters", &step, 10, 4)
	// Escalating plateaus: each 3× jump fires once (sustain 1), then the
	// baseline re-seeds and re-warms at the new level.
	v := 30.0
	for i := 0; i < 6; i++ {
		feed(p, "solver.iters", &step, v, 1) // fires against the previous plateau
		feed(p, "solver.iters", &step, v, 2) // re-warms at the new one
		v *= 3
	}
	if n := p.AnomalyTotal(); n != 6 {
		t.Fatalf("anomaly total = %d, want 6", n)
	}
	anoms := p.Anomalies()
	if len(anoms) != 4 {
		t.Fatalf("retained log holds %d, want MaxAnomalies=4", len(anoms))
	}
	for i := 1; i < len(anoms); i++ {
		if anoms[i].Step <= anoms[i-1].Step {
			t.Fatalf("anomaly log out of order: %+v", anoms)
		}
	}
}

// --- classification -----------------------------------------------------

func TestClassify(t *testing.T) {
	cases := map[string]Kind{
		"step.seconds":                  KindStepTime,
		"gauge.rank0.pressure.iters":    KindCGIteration,
		"solver.iters":                  KindCGIteration,
		"traffic.rank0.bytes":           KindTraffic,
		"traffic.rank0.msgs":            KindOther,
		"imbalance.ns.step":             KindImbalance,
		"runtime.alloc_bytes":           KindAlloc,
		"runtime.heap_bytes":            KindOther,
		"runtime.gc_pause_ns":           KindOther,
		"gauge.rank0.particles":         KindOther,
		"stage.rank0.ns.step.seconds":   KindOther,
		"stage.rank0.meta.wait.seconds": KindOther,
	}
	for name, want := range cases {
		if got := classify(name); got != want {
			t.Errorf("classify(%q) = %s, want %s", name, got, want)
		}
	}
}

func TestKindJSONRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var back Kind
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back != k {
			t.Fatalf("kind %s round-tripped to %s", k, back)
		}
	}
	var k Kind
	if err := json.Unmarshal([]byte(`"no-such-kind"`), &k); err == nil {
		t.Fatal("unknown kind name did not error")
	}
}

// --- sampling -----------------------------------------------------------

// TestSampleExchangeSeries: one full sample derives the documented series
// set from real telemetry recorders — per-stage seconds, gauges, traffic
// counters and the cross-track imbalance ratio.
func TestSampleExchangeSeries(t *testing.T) {
	reg := telemetry.NewRegistry()
	r0 := reg.NewRecorder("rank0")
	r1 := reg.NewRecorder("rank1")
	recs := []*telemetry.Recorder{r0, r1}
	p := New(testOptions())

	record := func(d0, d1 time.Duration) {
		r0.RecordSpan("ns.step", 0, d0, 0, 0)
		r1.RecordSpan("ns.step", 0, d1, 0, 0)
		r0.Gauge("cg_iterations", 12)
		r0.CountMessage(telemetry.LevelL4, telemetry.OpCoupling, 4096)
	}
	// Two samples: cumulative series (stage seconds, traffic) seed on the
	// first and carry real deltas from the second; rank1 is the 3× straggler.
	record(100*time.Millisecond, 300*time.Millisecond)
	p.SampleExchange(1, 0.4, recs)
	record(100*time.Millisecond, 300*time.Millisecond)
	p.SampleExchange(2, 0.4, recs)

	doc := p.Doc("", 0, 0)
	got := map[string]SeriesJSON{}
	for _, s := range doc.Series {
		got[s.Name] = s
	}
	for _, want := range []string{
		"step.seconds",
		"stage.rank0.ns.step.seconds", "stage.rank1.ns.step.seconds",
		"gauge.rank0.cg_iterations",
		"traffic.rank0.bytes", "traffic.rank0.msgs",
		"imbalance.ns.step",
	} {
		if _, ok := got[want]; !ok {
			t.Errorf("series %q missing from sample (have %v)", want, doc.Series)
		}
	}
	for name := range got {
		if strings.HasPrefix(name, "runtime.") {
			t.Errorf("NoRuntime sample stored runtime series %q", name)
		}
	}
	// Imbalance = max/mean of the per-track stage deltas: 0.3/0.2 = 1.5.
	if imb := got["imbalance.ns.step"]; math.Abs(imb.Last-1.5) > 1e-9 {
		t.Errorf("imbalance.ns.step = %g, want 1.5", imb.Last)
	}
	// Traffic delta of the second sample: 4096 new bytes.
	if tr := got["traffic.rank0.bytes"]; tr.Last != 4096 {
		t.Errorf("traffic.rank0.bytes delta = %g, want 4096", tr.Last)
	}
	if p.Samples() != 2 || doc.Step != 2 {
		t.Errorf("samples=%d step=%d, want 2/2", p.Samples(), doc.Step)
	}
}

// TestSampleExchangeRuntimeSeries: without NoRuntime the Go runtime signals
// are stored too (the /metrics gauges and the KindAlloc detector input).
func TestSampleExchangeRuntimeSeries(t *testing.T) {
	o := testOptions()
	o.NoRuntime = false
	p := New(o)
	p.SampleExchange(1, 0.1, nil)
	doc := p.Doc("runtime.", 0, 0)
	names := map[string]bool{}
	for _, s := range doc.Series {
		names[s.Name] = true
	}
	for _, want := range []string{seriesHeapBytes, seriesAllocRate, seriesGCPause, seriesGoroutines} {
		if !names[want] {
			t.Errorf("runtime series %q missing (have %v)", want, names)
		}
	}
}

// --- document / HTTP bodies ---------------------------------------------

func TestDocTierSelectionAndTruncation(t *testing.T) {
	o := testOptions()
	o.TierCap = 64
	p := New(o)
	for i := 1; i <= 100; i++ {
		p.Observe("x", int64(i), float64(i))
	}

	// tier 0: the raw ring.
	d := p.Doc("", 0, 0)
	if n := len(d.Series[0].Points); n != 8 {
		t.Fatalf("tier 0 served %d points, want 8", n)
	}
	// Explicit tier 1: bins at factor 2.
	d = p.Doc("", 1, 0)
	if s := d.Series[0]; s.Tier != 1 || len(s.Bins) != 50 || len(s.Points) != 0 {
		t.Fatalf("tier 1 served tier=%d bins=%d points=%d, want 1/50/0", s.Tier, len(s.Bins), len(s.Points))
	}
	// Auto tier with a budget: rawest representation fitting maxPoints, then
	// newest-N truncation.
	d = p.Doc("", -1, 4)
	s := d.Series[0]
	if s.Tier != 2 || len(s.Bins) != 4 {
		t.Fatalf("auto tier served tier=%d bins=%d, want tier 2 with 4 bins", s.Tier, len(s.Bins))
	}
	if last := s.Bins[len(s.Bins)-1]; last.Step1 != 100 {
		t.Fatalf("truncation kept oldest bins (last covers to %d), want newest (100)", last.Step1)
	}
	// Auto tier with a budget the raw ring already fits.
	d = p.Doc("", -1, 16)
	if s := d.Series[0]; s.Tier != 0 || len(s.Points) != 8 {
		t.Fatalf("auto tier with slack served tier=%d, want raw", s.Tier)
	}
	// A tier beyond the configuration serves the coarsest.
	d = p.Doc("", 9, 0)
	if s := d.Series[0]; s.Tier != 2 || len(s.Bins) == 0 {
		t.Fatalf("over-deep tier served tier=%d bins=%d, want coarsest (2)", s.Tier, len(s.Bins))
	}
}

func TestDocPrefixFilter(t *testing.T) {
	p := New(testOptions())
	p.Observe("stage.rank0.ns.step.seconds", 1, 0.1)
	p.Observe("gauge.rank0.particles", 1, 400)
	d := p.Doc("stage.", 0, 0)
	if len(d.Series) != 1 || d.Series[0].Name != "stage.rank0.ns.step.seconds" {
		t.Fatalf("prefix filter served %+v, want only the stage series", d.Series)
	}
}

func TestJSONBodies(t *testing.T) {
	p := New(testOptions())
	var step int64
	feed(p, "solver.iters", &step, 10, 8)
	feed(p, "solver.iters", &step, 30, 3) // one anomaly
	hb, err := p.HistoryJSON("", -1, 64)
	if err != nil {
		t.Fatal(err)
	}
	var doc Doc
	if err := json.Unmarshal(hb, &doc); err != nil {
		t.Fatalf("GET /history body is not a Doc: %v\n%s", err, hb)
	}
	if doc.AnomalyTotal != 1 || len(doc.Series) != 1 {
		t.Fatalf("doc = %+v, want 1 series, 1 anomaly", doc)
	}
	ab, err := p.AnomaliesJSON()
	if err != nil {
		t.Fatal(err)
	}
	var anoms struct {
		Total  int64            `json:"total"`
		ByKind map[string]int64 `json:"by_kind"`
	}
	if err := json.Unmarshal(ab, &anoms); err != nil {
		t.Fatalf("GET /anomalies body: %v\n%s", err, ab)
	}
	if anoms.Total != 1 || anoms.ByKind["cg-inflation"] != 1 {
		t.Fatalf("anomalies body = %+v, want total 1, cg-inflation 1", anoms)
	}
}

// --- state round-trip ---------------------------------------------------

// TestStateRoundTrip: capture → gob → apply onto a fresh plane must
// reproduce the state exactly, and — the reason history rides the checkpoint
// at all — the restored baselines must continue *identically*: the same
// future samples produce the same anomalies on both planes.
func TestStateRoundTrip(t *testing.T) {
	o := testOptions()
	a := New(o)
	var step int64
	feed(a, "solver.iters", &step, 10, 8)
	feed(a, "solver.iters", &step, 30, 3) // one fired anomaly in the log
	for i := int64(1); i <= 20; i++ {
		a.Observe("step.seconds", i, 0.1+0.001*float64(i%3))
		a.ObserveCum("traffic.rank0.bytes", i, float64(4096*i))
	}

	st := a.CaptureState()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatalf("state is not gob-serializable: %v", err)
	}
	var decoded State
	if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
		t.Fatal(err)
	}

	b := New(o)
	b.ApplyState(&decoded)
	if got := b.CaptureState(); !reflect.DeepEqual(got, st) {
		t.Fatalf("state did not round-trip:\ngot  %+v\nwant %+v", got, st)
	}

	// Continuation determinism: the regression that started before the
	// checkpoint must complete identically after it. Feed both planes the
	// same post-capture samples.
	cont := func(p *Plane) {
		s := step
		for i := int64(1); i <= 10; i++ {
			p.Observe("solver.iters", s+i, 30) // plateau: quiet (re-seeded at 30)
			p.Observe("step.seconds", 20+i, 0.1)
			p.ObserveCum("traffic.rank0.bytes", 20+i, float64(4096*(20+i)))
		}
		p.Observe("solver.iters", s+11, 90)
		p.Observe("solver.iters", s+12, 90)
		p.Observe("solver.iters", s+13, 90) // second regression fires
	}
	cont(a)
	cont(b)
	if a.AnomalyTotal() != 2 || b.AnomalyTotal() != 2 {
		t.Fatalf("anomaly totals diverged: straight %d, resumed %d, want 2/2", a.AnomalyTotal(), b.AnomalyTotal())
	}
	if got, want := b.CaptureState(), a.CaptureState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed plane diverged from straight run:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestApplyStateRebounds: restoring a big capture into a smaller-capacity
// plane keeps the newest entries (capacity is configuration, not state).
func TestApplyStateRebounds(t *testing.T) {
	big := testOptions()
	big.RawCap = 64
	a := New(big)
	for i := 1; i <= 32; i++ {
		a.Observe("x", int64(i), float64(i))
	}
	small := testOptions() // RawCap 8
	b := New(small)
	b.ApplyState(a.CaptureState())
	pts := b.series["x"].points()
	if len(pts) != 8 || pts[0].Step != 25 || pts[7].Step != 32 {
		t.Fatalf("re-bounded ring = %+v, want newest 8 (25..32)", pts)
	}
}

// TestApplyStateUnknownKind: a restored series whose Kind is out of range
// (a corrupt or foreign blob) is kept as an untyped series, so it never
// fires and never indexes the per-kind anomaly counters out of range.
func TestApplyStateUnknownKind(t *testing.T) {
	p := New(testOptions())
	p.ApplyState(&State{Series: []SeriesState{{
		Name: "x", Kind: numKinds + 3,
		Det: DetectorState{Mean: 1, Dev: 0.1, N: 100},
	}}})
	for i := int64(1); i <= 20; i++ {
		p.Observe("x", i, 1000)
	}
	if n := p.AnomalyTotal(); n != 0 {
		t.Fatalf("an untyped series fired %d anomalies", n)
	}
	if k := p.series["x"].kind; k != KindOther {
		t.Fatalf("restored kind = %v, want untyped", k)
	}
}

// --- profiling ----------------------------------------------------------

// TestAnomalyTriggersProfileCapture: a fired anomaly auto-captures a pprof
// CPU profile (rate-limited), and the hook sees the final path.
func TestAnomalyTriggersProfileCapture(t *testing.T) {
	dir := t.TempDir()
	o := testOptions()
	o.ProfileDir = dir
	o.ProfileWindow = 50 * time.Millisecond
	o.ProfileMinGap = time.Millisecond
	o.ProfileLimit = 1
	p := New(o)
	var hooked []Anomaly
	p.OnAnomaly(func(a Anomaly) { hooked = append(hooked, a) })

	var step int64
	feed(p, "solver.iters", &step, 10, 8)
	feed(p, "solver.iters", &step, 30, 3)
	anoms := p.Anomalies()
	if len(anoms) != 1 || anoms[0].ProfilePath == "" {
		t.Fatalf("anomaly without profile path: %+v", anoms)
	}
	if len(hooked) != 1 || hooked[0].ProfilePath != anoms[0].ProfilePath {
		t.Fatalf("hook saw %+v, want the anomaly with its final profile path", hooked)
	}
	// The capture window runs in the background; wait for completion.
	deadline := time.Now().Add(5 * time.Second)
	for len(p.ProfilePaths()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("profile capture never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	fi, err := os.Stat(p.ProfilePaths()[0])
	if err != nil || fi.Size() == 0 {
		t.Fatalf("captured profile unusable: %v (size %d)", err, fi.Size())
	}

	// A second regression is over the per-run capture budget: the anomaly
	// still fires, without a profile.
	feed(p, "solver.iters", &step, 30, 3) // re-warm at the new level
	feed(p, "solver.iters", &step, 90, 3)
	anoms = p.Anomalies()
	if len(anoms) != 2 {
		t.Fatalf("second regression did not fire: %+v", anoms)
	}
	if anoms[1].ProfilePath != "" {
		t.Fatalf("second anomaly captured past ProfileLimit=1: %+v", anoms[1])
	}
}

// --- disabled path ------------------------------------------------------

// TestNilPlaneDisabled: every method on a nil plane is a safe no-op — the
// disabled contract shared with telemetry, monitor, audit and in-situ.
func TestNilPlaneDisabled(t *testing.T) {
	var p *Plane
	p.Observe("x", 1, 1)
	p.ObserveCum("x", 1, 1)
	p.SampleExchange(1, 0.1, nil)
	p.OnAnomaly(func(Anomaly) {})
	p.ApplyState(&State{Samples: 3})
	if p.Samples() != 0 || p.AnomalyTotal() != 0 || p.SampleCost() != 0 {
		t.Fatal("nil plane reported non-zero state")
	}
	if p.Doc("", 0, 0) != nil || p.CaptureState() != nil || p.Anomalies() != nil ||
		p.ProfilePaths() != nil || p.Stats() != nil {
		t.Fatal("nil plane returned non-nil data")
	}
	if b, err := p.HistoryJSON("", 0, 0); b != nil || err != nil {
		t.Fatal("nil plane HistoryJSON not nil,nil")
	}
	if b, err := p.AnomaliesJSON(); b != nil || err != nil {
		t.Fatal("nil plane AnomaliesJSON not nil,nil")
	}
}

// --- perf-report --------------------------------------------------------

func TestCompareReport(t *testing.T) {
	oldDoc := &Doc{Series: []SeriesJSON{
		{Name: "step.seconds", Kind: KindStepTime, Mean: 0.10},
		{Name: "stage.rank0.ns.step.seconds", Kind: KindOther, Mean: 0.05},
		{Name: "gauge.rank0.particles", Kind: KindOther, Mean: 100},
		{Name: "gauge.rank0.gone", Kind: KindOther, Mean: 1},
	}}
	newDoc := &Doc{AnomalyTotal: 1, Series: []SeriesJSON{
		{Name: "step.seconds", Kind: KindStepTime, Mean: 0.14},              // +40%: regression
		{Name: "stage.rank0.ns.step.seconds", Kind: KindOther, Mean: 0.055}, // +10%: under threshold
		{Name: "gauge.rank0.particles", Kind: KindOther, Mean: 300},         // +200% but not timing
		{Name: "gauge.rank0.fresh", Kind: KindOther, Mean: 2},
	}}
	r := Compare(oldDoc, newDoc, 0.25)
	if r.Regressions != 1 {
		t.Fatalf("regressions = %d, want 1 (only step.seconds gates)", r.Regressions)
	}
	if len(r.Rows) != 3 || r.Rows[0].Name != "step.seconds" || !r.Rows[0].Regression {
		t.Fatalf("rows = %+v, want step.seconds regression ranked first", r.Rows)
	}
	if !reflect.DeepEqual(r.OldOnly, []string{"gauge.rank0.gone"}) ||
		!reflect.DeepEqual(r.NewOnly, []string{"gauge.rank0.fresh"}) {
		t.Fatalf("old/new-only = %v / %v", r.OldOnly, r.NewOnly)
	}
	if r.NewAnomalies != 1 {
		t.Fatalf("new anomalies = %d, want 1", r.NewAnomalies)
	}
	var buf bytes.Buffer
	r.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"<< REGRESSION", "anomalies: old 0, new 1", "1 timing regression(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("report text missing %q:\n%s", want, out)
		}
	}
}

// TestLoadDocRoundTrip: a -history-out file loads back into the same Doc the
// plane rendered.
func TestLoadDocRoundTrip(t *testing.T) {
	p := New(testOptions())
	var step int64
	feed(p, "solver.iters", &step, 10, 6)
	raw, err := p.HistoryJSON("", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/hist.json"
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := LoadDoc(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, p.Doc("", 0, 0)) {
		t.Fatalf("loaded doc diverged:\ngot  %+v\nwant %+v", d, p.Doc("", 0, 0))
	}
	if _, err := LoadDoc(t.TempDir() + "/missing.json"); err == nil {
		t.Fatal("missing file did not error")
	}
}

// TestStats: the monitor.Stat bridge exposes the plane's own meters.
func TestStats(t *testing.T) {
	p := New(testOptions())
	var step int64
	feed(p, "solver.iters", &step, 10, 8)
	feed(p, "solver.iters", &step, 30, 3)
	p.SampleExchange(20, 0.1, nil)
	got := map[string]float64{}
	for _, s := range p.Stats() {
		key := s.Name
		for _, l := range s.Labels {
			key += "{" + l[0] + "=" + l[1] + "}"
		}
		got[key] = s.Value
	}
	if got["history_samples_total"] != 1 {
		t.Errorf("history_samples_total = %g, want 1", got["history_samples_total"])
	}
	if got["history_series"] != 2 { // solver.iters + step.seconds
		t.Errorf("history_series = %g, want 2", got["history_series"])
	}
	if got["history_anomalies_total{kind=cg-inflation}"] != 1 {
		t.Errorf("anomaly counter = %g, want 1 (%v)", got["history_anomalies_total{kind=cg-inflation}"], got)
	}
}
