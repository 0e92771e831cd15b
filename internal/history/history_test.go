package history

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"nektarg/internal/telemetry"
)

// rig drives a plane the way the metasolver does, one SampleExchange per
// exchange, over a real telemetry recorder whose gauges the test sets before
// each sample. The plane runs at its constants, runtime series included, so
// assertions name the series they are about.
type rig struct {
	p    *Plane
	rec  *telemetry.Recorder
	recs []*telemetry.Recorder
	step int64
}

func newRig(opts Options) *rig {
	rec := telemetry.NewRegistry().NewRecorder("rank0")
	return &rig{p: New(opts), rec: rec, recs: []*telemetry.Recorder{rec}}
}

// itersSeries is the CG-iteration series the rig's "solver.iters" gauge
// feeds (an alarmable kind).
const itersSeries = "gauge.rank0.solver.iters"

// feed takes n samples with the solver.iters gauge at v and a constant step
// time.
func (r *rig) feed(v float64, n int) {
	for i := 0; i < n; i++ {
		r.rec.Gauge("solver.iters", v)
		r.step++
		r.p.SampleExchange(r.step, 0.1, r.recs)
	}
}

// stepTimes takes one sample per value, each the step wall time.
func (r *rig) stepTimes(vals ...float64) {
	for _, v := range vals {
		r.step++
		r.p.SampleExchange(r.step, v, nil)
	}
}

// anomaliesOf returns the retained anomalies of one series.
func anomaliesOf(p *Plane, series string) []Anomaly {
	var out []Anomaly
	for _, a := range p.Anomalies() {
		if a.Series == series {
			out = append(out, a)
		}
	}
	return out
}

// pattern is a deterministic non-monotone sequence in [0, 1), so bin minima
// are not first samples and maxima not last ones.
func pattern(n int) []float64 {
	vals := make([]float64, n)
	x := uint32(12345)
	for i := range vals {
		x = x*1664525 + 1013904223
		vals[i] = float64(x>>8) / (1 << 24)
	}
	return vals
}

// --- storage invariants -------------------------------------------------

// TestRingBoundsAndOrder: no matter how many samples a series absorbs, the
// raw ring and every tier ring stay at their capacities and read back in
// chronological order.
func TestRingBoundsAndOrder(t *testing.T) {
	r := newRig(Options{})
	n := TierCap*TierFactor + 3*TierFactor // the first tier's ring wraps
	for i := 0; i < n; i++ {
		r.stepTimes(float64(i))
	}
	s := r.p.series[seriesStepSeconds]
	if len(s.raw) != RawCap {
		t.Fatalf("raw ring holds %d points, want RawCap %d", len(s.raw), RawCap)
	}
	pts := s.points()
	for i := 1; i < len(pts); i++ {
		if pts[i].Step <= pts[i-1].Step {
			t.Fatalf("raw points out of order at %d: %+v", i, pts[i-1:i+1])
		}
	}
	if first, last := pts[0].Step, pts[len(pts)-1].Step; last != int64(n) || first != int64(n-RawCap+1) {
		t.Fatalf("raw window = [%d,%d], want [%d,%d]", first, last, n-RawCap+1, n)
	}
	if len(s.tiers[0].bins) != TierCap {
		t.Fatalf("tier 0 holds %d bins after wrapping, want TierCap %d", len(s.tiers[0].bins), TierCap)
	}
	for ti, tr := range s.tiers {
		if len(tr.bins) > TierCap {
			t.Fatalf("tier %d holds %d bins, want <= TierCap %d", ti, len(tr.bins), TierCap)
		}
		bins := tr.ordered()
		for i := 1; i < len(bins); i++ {
			if bins[i].Step0 <= bins[i-1].Step1 {
				t.Fatalf("tier %d bins overlap at %d: %+v", ti, i, bins[i-1:i+1])
			}
		}
	}
	if last := s.tiers[0].ordered()[TierCap-1]; last.Step1 != int64(n) {
		t.Fatalf("tier 0's newest completed bin ends at %d, want %d", last.Step1, n)
	}
}

// TestTierEnvelopeConservation: every completed bin carries exactly the
// min/max/sum/count of the raw samples in its window — tiers consume the
// sample stream independently, so raw-ring wrap cannot corrupt them.
func TestTierEnvelopeConservation(t *testing.T) {
	r := newRig(Options{})
	coarse := TierFactor * TierFactor
	vals := pattern(2 * coarse)
	r.stepTimes(vals...)
	s := r.p.series[seriesStepSeconds]
	for ti, factor := range []int{TierFactor, coarse} {
		bins := s.tiers[ti].ordered()
		if len(bins) != len(vals)/factor {
			t.Fatalf("tier %d completed %d bins, want %d", ti, len(bins), len(vals)/factor)
		}
		for i, b := range bins {
			win := vals[factor*i : factor*(i+1)]
			want := Bin{Step0: int64(factor*i + 1), Step1: int64(factor * (i + 1)), Count: int64(factor), Min: win[0], Max: win[0]}
			for _, v := range win {
				want.Min = math.Min(want.Min, v)
				want.Max = math.Max(want.Max, v)
				want.Sum += v
			}
			if b != want {
				t.Fatalf("tier %d bin %d = %+v, want %+v", ti, i, b, want)
			}
		}
	}
}

// TestSummaryExactDespiteWrap: the whole-run Summary never loses samples to
// ring wrap — it is the perf-report currency.
func TestSummaryExactDespiteWrap(t *testing.T) {
	r := newRig(Options{})
	n := RawCap + 100
	var sum float64
	for i := 1; i <= n; i++ {
		r.stepTimes(float64(i))
		sum += float64(i)
	}
	s := r.p.series[seriesStepSeconds].sum
	if s.Count != int64(n) || s.Sum != sum || s.Min != 1 || s.Max != float64(n) || s.Last != float64(n) {
		t.Fatalf("summary = %+v, want count %d sum %g min 1 max %d last %d", s, n, sum, n, n)
	}
	if s.Mean() != sum/float64(n) {
		t.Fatalf("mean = %g, want %g", s.Mean(), sum/float64(n))
	}
}

// TestCumulativeSeries: a cumulative counter (a track's traffic bytes) is
// stored as per-sample deltas, seeds on its first sample and re-seeds
// (without a bogus negative sample) when the counter moves backwards — a
// restarted process whose recorder counts from zero again.
func TestCumulativeSeries(t *testing.T) {
	p := New(Options{})
	rec := telemetry.NewRegistry().NewRecorder("rank0")
	sample := func(step int64, bytes int64) {
		rec.CountMessage(telemetry.LevelL4, telemetry.OpCoupling, bytes)
		p.SampleExchange(step, 0.1, []*telemetry.Recorder{rec})
	}
	sample(1, 100) // seed
	sample(2, 10)  // delta 10
	sample(3, 15)  // delta 15
	rec = telemetry.NewRegistry().NewRecorder("rank0")
	sample(4, 50) // backwards (125 -> 50): re-seed, no sample
	sample(5, 10) // delta 10
	pts := p.series["traffic.rank0.bytes"].points()
	want := []Point{{Step: 2, V: 10}, {Step: 3, V: 15}, {Step: 5, V: 10}}
	if !reflect.DeepEqual(pts, want) {
		t.Fatalf("cumulative deltas = %+v, want %+v", pts, want)
	}
}

// TestMaxSeriesBound: a gauge-namespace explosion is refused, not stored.
func TestMaxSeriesBound(t *testing.T) {
	r := newRig(Options{})
	for i := 0; i < MaxSeries+10; i++ {
		r.rec.Gauge(fmt.Sprintf("g%d", i), 1)
	}
	r.feed(1, 2)
	if n := len(r.p.series); n != MaxSeries {
		t.Fatalf("stored %d series, want MaxSeries %d", n, MaxSeries)
	}
	if n := len(r.p.Doc("", 0, 0).Series); n != MaxSeries {
		t.Fatalf("document serves %d series, want MaxSeries %d", n, MaxSeries)
	}
}

// --- detector -----------------------------------------------------------

// TestDetectorWarmupNeverFires: excursions during warm-up must not alarm —
// the opening samples of a run are flow development, not regression.
func TestDetectorWarmupNeverFires(t *testing.T) {
	r := newRig(Options{})
	for i := 1; i < Warmup; i++ {
		v := 10.0
		if i%2 == 0 {
			v = 1000
		}
		r.feed(v, 1)
	}
	if a := anomaliesOf(r.p, itersSeries); len(a) != 0 {
		t.Fatalf("warm-up fired %d anomalies, want 0: %+v", len(a), a)
	}
}

// TestDetectorSustainedStepChangeFiresOnce is the core contract: a step
// change fires exactly one typed anomaly after Sustain consecutive excursion
// samples, then the baseline re-seeds at the new level and the plateau stays
// quiet.
func TestDetectorSustainedStepChangeFiresOnce(t *testing.T) {
	r := newRig(Options{})
	r.feed(10, Warmup+4) // stable baseline, armed
	r.feed(30, 20)
	anoms := anomaliesOf(r.p, itersSeries)
	if len(anoms) != 1 {
		t.Fatalf("step change fired %d anomalies, want exactly 1: %+v", len(anoms), anoms)
	}
	a := anoms[0]
	if a.Kind != KindCGIteration {
		t.Fatalf("anomaly kind = %s, want %s (suffix .iters)", a.Kind, KindCGIteration)
	}
	if a.Value != 30 || a.Baseline != 10 {
		t.Fatalf("anomaly = %+v, want value 30 baseline 10", a)
	}
	// The streak started on the first 30-sample and completed Sustain
	// samples later.
	if want := int64(Warmup + 4 + Sustain); a.Step != want {
		t.Fatalf("anomaly fired at step %d, want %d", a.Step, want)
	}
	if a.Z <= Z || a.Sustained != Sustain {
		t.Fatalf("anomaly z = %g sustained %d, want z > %g sustained %d", a.Z, a.Sustained, Z, Sustain)
	}
}

// TestDetectorSingleSpikeDoesNotFire: one-sample noise never completes a
// streak, and the suspect sample is not folded into the baseline.
func TestDetectorSingleSpikeDoesNotFire(t *testing.T) {
	r := newRig(Options{})
	r.feed(10, Warmup+4)
	r.feed(1000, 1) // spike
	r.feed(10, 8)   // back to normal
	if a := anomaliesOf(r.p, itersSeries); len(a) != 0 {
		t.Fatalf("single spike fired %d anomalies, want 0", len(a))
	}
	if m := r.p.series[itersSeries].det.mean; m != 10 {
		t.Fatalf("baseline mean after spike = %g, want 10 (spike must not be absorbed)", m)
	}
}

// TestDetectorFreezesBaselineDuringStreak pins the refinement directly: while
// a streak is building, the suspect samples must not pull the mean up
// underneath the excursion.
func TestDetectorFreezesBaselineDuringStreak(t *testing.T) {
	var d detector
	d.relFloor, d.absFloor = KindCGIteration.floors()
	for i := 0; i < Warmup+4; i++ {
		d.observe(10)
	}
	if d.mean != 10 {
		t.Fatalf("baseline mean = %g, want 10", d.mean)
	}
	for i := 1; i < Sustain; i++ { // suspect samples: streak builds, baseline frozen
		fire, _, _ := d.observe(30)
		if fire {
			t.Fatalf("fired on streak sample %d, want fire on sample %d", i, Sustain)
		}
		if d.mean != 10 || d.dev != 0 {
			t.Fatalf("baseline moved during streak: mean %g dev %g, want 10/0", d.mean, d.dev)
		}
	}
	fire, z, baseline := d.observe(30)
	if !fire || baseline != 10 || z <= Z {
		t.Fatalf("streak sample %d: fire=%v z=%g baseline=%g, want fire against baseline 10", Sustain, fire, z, baseline)
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
	r := newRig(Options{})
	// Opening development ramp 2..16, then the plateau. Warm-up spans both,
	// so by arming time the fast warmupAlpha has pulled the mean onto the
	// plateau and re-shrunk the deviation toward plateau noise.
	for v := 2.0; v <= 16; v += 2 {
		r.feed(v, 1)
	}
	r.feed(16, Warmup-2)
	if a := anomaliesOf(r.p, itersSeries); len(a) != 0 {
		t.Fatalf("ramp itself fired %d anomalies, want 0", len(a))
	}
	// A real regression on top of the plateau still fires — the ramp error
	// did not poison the armed baseline's scale.
	r.feed(28, Sustain+1)
	if a := anomaliesOf(r.p, itersSeries); len(a) != 1 {
		t.Fatalf("post-ramp regression fired %d anomalies, want 1: %+v", len(a), a)
	}
}

// TestAnomalyLogRing: the retained log is a ring bounded by MaxAnomalies
// while the totals stay exact.
func TestAnomalyLogRing(t *testing.T) {
	p := New(Options{})
	rec := telemetry.NewRegistry().NewRecorder("rank0")
	recs := []*telemetry.Recorder{rec}
	const gauges, rounds = 20, 14 // 280 anomalies > MaxAnomalies
	var step int64
	feed := func(v float64, n int) {
		for i := 0; i < n; i++ {
			for g := 0; g < gauges; g++ {
				rec.Gauge(string(rune('a'+g))+".iters", v)
			}
			step++
			p.SampleExchange(step, 0.1, recs)
		}
	}
	// Escalating plateaus: each 3× jump fires once per gauge after Sustain
	// samples, then the baselines re-seed and re-warm at the new level.
	v := 10.0
	feed(v, Warmup)
	for i := 0; i < rounds; i++ {
		v *= 3
		feed(v, Sustain)
		feed(v, Warmup-1)
	}
	if n := p.anomTotal[KindCGIteration]; n != gauges*rounds {
		t.Fatalf("cg-inflation total = %d, want %d", n, gauges*rounds)
	}
	anoms := p.Anomalies()
	if len(anoms) != MaxAnomalies {
		t.Fatalf("retained log holds %d, want MaxAnomalies %d", len(anoms), MaxAnomalies)
	}
	for i := 1; i < len(anoms); i++ {
		if anoms[i].Step < anoms[i-1].Step {
			t.Fatalf("anomaly log out of order at %d: %+v", i, anoms[i-1:i+1])
		}
	}
	cg := anoms[:0:0]
	for _, a := range anoms {
		if a.Kind == KindCGIteration {
			cg = append(cg, a)
		}
	}
	if last := cg[len(cg)-1]; last.Value != v {
		t.Fatalf("newest retained anomaly = %+v, want the last round's (value %g)", last, v)
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
	p := New(Options{})

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
		if !strings.HasPrefix(s.Name, "runtime.") {
			got[s.Name] = s
		}
	}
	want := []string{
		"step.seconds",
		"stage.rank0.ns.step.seconds", "stage.rank1.ns.step.seconds",
		"gauge.rank0.cg_iterations",
		"traffic.rank0.bytes", "traffic.rank0.msgs",
		"traffic.rank1.bytes", "traffic.rank1.msgs",
		"imbalance.ns.step",
	}
	for _, name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("series %q missing from sample (have %v)", name, doc.Series)
		}
	}
	if len(got) != len(want) {
		t.Errorf("sample stored %d non-runtime series, want %d: %v", len(got), len(want), got)
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

// TestSampleExchangeRuntimeSeries: every sample stores the Go runtime
// signals too (the /metrics gauges and the KindAlloc detector input).
func TestSampleExchangeRuntimeSeries(t *testing.T) {
	p := New(Options{})
	p.SampleExchange(1, 0.1, nil)
	p.SampleExchange(2, 0.1, nil)
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
	r := newRig(Options{})
	n := RawCap + 40*TierFactor + 5
	r.stepTimes(pattern(n)...)
	series := func(d *Doc) SeriesJSON {
		t.Helper()
		for _, s := range d.Series {
			if s.Name == seriesStepSeconds {
				return s
			}
		}
		t.Fatalf("document has no %s series", seriesStepSeconds)
		return SeriesJSON{}
	}
	tier1 := n/TierFactor + 1 // completed bins plus the filling one
	tier2 := n/(TierFactor*TierFactor) + 1

	// tier 0: the raw ring.
	if s := series(r.p.Doc("", 0, 0)); s.Tier != 0 || len(s.Points) != RawCap {
		t.Fatalf("tier 0 served tier=%d points=%d, want RawCap %d", s.Tier, len(s.Points), RawCap)
	}
	// Explicit tier 1: every bin, the newest still filling.
	s := series(r.p.Doc("", 1, 0))
	if s.Tier != 1 || len(s.Bins) != tier1 || len(s.Points) != 0 {
		t.Fatalf("tier 1 served tier=%d bins=%d points=%d, want 1/%d/0", s.Tier, len(s.Bins), len(s.Points), tier1)
	}
	if last := s.Bins[len(s.Bins)-1]; last.Step1 != int64(n) || last.Count != int64(n%TierFactor) {
		t.Fatalf("tier 1's newest bin = %+v, want the filling bin ending at %d", last, n)
	}
	// Auto tier with a budget: the rawest representation fitting maxPoints.
	if s := series(r.p.Doc("", -1, tier1)); s.Tier != 1 || len(s.Bins) != tier1 {
		t.Fatalf("auto tier with max %d served tier=%d bins=%d, want tier 1", tier1, s.Tier, len(s.Bins))
	}
	// Nothing fits: the coarsest tier, newest-N truncated.
	s = series(r.p.Doc("", -1, tier2-1))
	if s.Tier != 2 || len(s.Bins) != tier2-1 {
		t.Fatalf("auto tier with max %d served tier=%d bins=%d, want tier 2 with %d bins", tier2-1, s.Tier, len(s.Bins), tier2-1)
	}
	if last := s.Bins[len(s.Bins)-1]; last.Step1 != int64(n) {
		t.Fatalf("truncation kept oldest bins (last covers to %d), want newest (%d)", last.Step1, n)
	}
	// Auto tier with a budget the raw ring already fits.
	if s := series(r.p.Doc("", -1, RawCap)); s.Tier != 0 || len(s.Points) != RawCap {
		t.Fatalf("auto tier with slack served tier=%d, want raw", s.Tier)
	}
	// A tier beyond Tiers serves the coarsest.
	if s := series(r.p.Doc("", 9, 0)); s.Tier != Tiers || len(s.Bins) != tier2 {
		t.Fatalf("over-deep tier served tier=%d bins=%d, want coarsest (%d) with %d bins", s.Tier, len(s.Bins), Tiers, tier2)
	}
}

// TestDocAutoTierEndsAtNewestSample: whatever tier the budget selects, every
// series' served window ends at its newest sample — /history and the
// fleet's compact document (max 64) show the exchanges that just ran.
func TestDocAutoTierEndsAtNewestSample(t *testing.T) {
	p := New(Options{})
	recs := benchRecorders()
	var step int64
	for _, n := range []int{4, 22, 100, RawCap + 7, 2*TierFactor*TierFactor + 3} {
		for step < int64(n) {
			step++
			p.SampleExchange(step, 0.012, recs)
		}
		for _, max := range []int{4, 64, 512} {
			d := p.Doc("", -1, max)
			for _, s := range d.Series {
				var last int64
				switch {
				case len(s.Points) > 0:
					last = s.Points[len(s.Points)-1].Step
				case len(s.Bins) > 0:
					last = s.Bins[len(s.Bins)-1].Step1
				}
				if last != step {
					t.Fatalf("after %d samples, max %d: %s (tier %d) ends at %d, want %d", n, max, s.Name, s.Tier, last, step)
				}
				if len(s.Points) > max || len(s.Bins) > max {
					t.Fatalf("after %d samples: %s served %d points %d bins, over max %d", n, s.Name, len(s.Points), len(s.Bins), max)
				}
			}
		}
	}
}

func TestDocPrefixFilter(t *testing.T) {
	p := New(Options{})
	recs := benchRecorders()
	p.SampleExchange(1, 0.1, recs)
	p.SampleExchange(2, 0.1, recs)
	d := p.Doc("stage.", 0, 0)
	var names []string
	for _, s := range d.Series {
		names = append(names, s.Name)
	}
	want := []string{
		"stage.rank0.exchange.seconds", "stage.rank0.ns.step.seconds",
		"stage.rank1.exchange.seconds", "stage.rank1.ns.step.seconds",
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("prefix filter served %v, want only the stage series %v", names, want)
	}
}

func TestJSONBodies(t *testing.T) {
	r := newRig(Options{})
	r.feed(10, Warmup+4)
	r.feed(30, Sustain) // one anomaly
	hb, err := r.p.HistoryJSON("", -1, 64)
	if err != nil {
		t.Fatal(err)
	}
	var doc Doc
	if err := json.Unmarshal(hb, &doc); err != nil {
		t.Fatalf("GET /history body is not a Doc: %v\n%s", err, hb)
	}
	found := false
	for _, s := range doc.Series {
		found = found || s.Name == itersSeries
	}
	if !found || doc.AnomalyTotal < 1 {
		t.Fatalf("doc = %+v, want the %s series and its anomaly", doc, itersSeries)
	}
	ab, err := r.p.AnomaliesJSON()
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
	var sum int64
	for _, n := range anoms.ByKind {
		sum += n
	}
	if anoms.ByKind["cg-inflation"] != 1 || anoms.Total != sum || anoms.Total != doc.AnomalyTotal {
		t.Fatalf("anomalies body = %+v, want cg-inflation 1 and a total of the kinds", anoms)
	}
}

// --- state round-trip ---------------------------------------------------

// withoutRuntime drops the runtime.* series from a captured state: those
// read the process's allocator, so two planes sampled side by side differ
// there and nowhere else.
func withoutRuntime(st *State) *State {
	out := *st
	out.Series = nil
	for _, ss := range st.Series {
		if !strings.HasPrefix(ss.Name, "runtime.") {
			out.Series = append(out.Series, ss)
		}
	}
	return &out
}

// TestStateRoundTrip: capture → gob → apply onto a fresh plane must
// reproduce the state exactly, and — the reason history rides the checkpoint
// at all — the restored baselines must continue *identically*: the same
// future samples produce the same anomalies on both planes.
func TestStateRoundTrip(t *testing.T) {
	a := newRig(Options{})
	for i := 0; i < Warmup+4; i++ {
		a.rec.CountMessage(telemetry.LevelL4, telemetry.OpCoupling, 4096)
		a.feed(10, 1)
	}
	a.feed(30, Sustain) // one fired anomaly in the log

	st := a.p.CaptureState()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatalf("state is not gob-serializable: %v", err)
	}
	var decoded State
	if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
		t.Fatal(err)
	}

	b := New(Options{})
	b.ApplyState(&decoded)
	if got := b.CaptureState(); !reflect.DeepEqual(got, st) {
		t.Fatalf("state did not round-trip:\ngot  %+v\nwant %+v", got, st)
	}

	// Continuation determinism: the regression that started before the
	// checkpoint must complete identically after it. Both planes sample the
	// same recorder after each post-capture exchange.
	cont := func(v float64, n int) {
		for i := 0; i < n; i++ {
			a.rec.Gauge("solver.iters", v)
			a.rec.CountMessage(telemetry.LevelL4, telemetry.OpCoupling, 4096)
			a.step++
			a.p.SampleExchange(a.step, 0.1, a.recs)
			b.SampleExchange(a.step, 0.1, a.recs)
		}
	}
	cont(30, Warmup)  // plateau: quiet (re-seeded at 30)
	cont(90, Sustain) // second regression fires
	if na, nb := len(anomaliesOf(a.p, itersSeries)), len(anomaliesOf(b, itersSeries)); na != 2 || nb != 2 {
		t.Fatalf("anomalies diverged: straight %d, resumed %d, want 2/2", na, nb)
	}
	if got, want := withoutRuntime(b.CaptureState()), withoutRuntime(a.p.CaptureState()); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed plane diverged from straight run:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestApplyStateRebounds: a restored state is held to the plane's bounds —
// rings longer than RawCap or TierCap, and a log longer than MaxAnomalies,
// keep their newest entries.
func TestApplyStateRebounds(t *testing.T) {
	ss := SeriesState{Name: "x", Kind: KindOther}
	for i := int64(1); i <= 2*RawCap; i++ {
		ss.Raw = append(ss.Raw, Point{Step: i, V: float64(i)})
	}
	var bins []Bin
	for i := int64(1); i <= TierCap+10; i++ {
		bins = append(bins, Bin{Step0: i, Step1: i, Count: 1})
	}
	ss.Tiers = []TierState{{Factor: TierFactor, Bins: bins}}
	st := &State{Series: []SeriesState{ss}}
	for i := int64(1); i <= MaxAnomalies+5; i++ {
		st.Anomalies = append(st.Anomalies, Anomaly{Step: i})
	}
	p := New(Options{})
	p.ApplyState(st)
	s := p.series["x"]
	pts := s.points()
	if len(pts) != RawCap || pts[0].Step != RawCap+1 || pts[RawCap-1].Step != 2*RawCap {
		t.Fatalf("re-bounded ring holds %d points [%d..%d], want the newest %d", len(pts), pts[0].Step, pts[len(pts)-1].Step, RawCap)
	}
	if got := s.tiers[0].ordered(); len(got) != TierCap || got[0].Step0 != 11 {
		t.Fatalf("re-bounded tier holds %d bins from %d, want the newest %d", len(got), got[0].Step0, TierCap)
	}
	if anoms := p.Anomalies(); len(anoms) != MaxAnomalies || anoms[0].Step != 6 {
		t.Fatalf("re-bounded log holds %d anomalies from step %d, want the newest %d", len(anoms), anoms[0].Step, MaxAnomalies)
	}
}

// TestApplyStateDuplicateAndExcessSeries: a restored state naming a series
// twice keeps the first occurrence, and one with more than MaxSeries series
// keeps the first MaxSeries — the document serves each name once.
func TestApplyStateDuplicateAndExcessSeries(t *testing.T) {
	st := &State{Series: []SeriesState{
		{Name: "x", Summary: Summary{Count: 1, Last: 1}},
		{Name: "x", Summary: Summary{Count: 2, Last: 2}},
	}}
	for i := 0; i < MaxSeries+5; i++ {
		st.Series = append(st.Series, SeriesState{Name: fmt.Sprintf("y%d", i)})
	}
	p := New(Options{})
	p.ApplyState(st)
	if n := len(p.series); n != MaxSeries {
		t.Fatalf("restored %d series, want MaxSeries %d", n, MaxSeries)
	}
	if s := p.series["x"]; s == nil || s.sum.Last != 1 {
		t.Fatalf("restored x = %+v, want the first occurrence", s)
	}
	seen := map[string]bool{}
	for _, s := range p.Doc("", 0, 0).Series {
		if seen[s.Name] {
			t.Fatalf("document serves %s twice", s.Name)
		}
		seen[s.Name] = true
	}
	if len(seen) != MaxSeries {
		t.Fatalf("document serves %d series, want %d", len(seen), MaxSeries)
	}
}

// TestApplyStateUnknownKind: a restored series whose Kind is out of range
// (a corrupt or foreign blob) is kept as an untyped series, so it never
// fires and never indexes the per-kind anomaly counters out of range.
func TestApplyStateUnknownKind(t *testing.T) {
	p := New(Options{})
	p.ApplyState(&State{Series: []SeriesState{{
		Name: seriesStepSeconds, Kind: numKinds + 3,
		Det: DetectorState{Mean: 1, Dev: 0.1, N: 100},
	}}})
	for i := int64(1); i <= 20; i++ {
		p.SampleExchange(i, 1000, nil)
	}
	if a := anomaliesOf(p, seriesStepSeconds); len(a) != 0 {
		t.Fatalf("an untyped series fired %d anomalies", len(a))
	}
	if k := p.series[seriesStepSeconds].kind; k != KindOther {
		t.Fatalf("restored kind = %v, want untyped", k)
	}
}

// --- profiling ----------------------------------------------------------

// waitProfileDone blocks until no CPU profile is running: the capture
// window has stopped and its file is complete.
func waitProfileDone(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(ProfileWindow + 5*time.Second)
	for pprof.StartCPUProfile(io.Discard) != nil {
		if time.Now().After(deadline) {
			t.Fatal("profile capture never completed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	pprof.StopCPUProfile()
}

// TestAnomalyTriggersProfileCapture: a fired anomaly auto-captures a pprof
// CPU profile (rate-limited), and the hook sees the final path.
func TestAnomalyTriggersProfileCapture(t *testing.T) {
	dir := t.TempDir()
	r := newRig(Options{ProfileDir: dir})
	var hooked []Anomaly
	r.p.OnAnomaly(func(a Anomaly) {
		if a.Series == itersSeries {
			hooked = append(hooked, a)
		}
	})

	r.feed(10, Warmup+4)
	r.feed(30, Sustain)
	anoms := anomaliesOf(r.p, itersSeries)
	if len(anoms) != 1 || !strings.HasPrefix(anoms[0].ProfilePath, dir) {
		t.Fatalf("anomaly without a profile under %s: %+v", dir, anoms)
	}
	if len(hooked) != 1 || hooked[0].ProfilePath != anoms[0].ProfilePath {
		t.Fatalf("hook saw %+v, want the anomaly with its final profile path", hooked)
	}
	waitProfileDone(t)
	fi, err := os.Stat(anoms[0].ProfilePath)
	if err != nil || fi.Size() == 0 {
		t.Fatalf("captured profile unusable: %v (%+v)", err, fi)
	}

	// A second regression inside ProfileMinGap: the anomaly still fires,
	// without a profile.
	r.feed(30, Warmup-1) // re-warm at the new level
	r.feed(90, Sustain)
	anoms = anomaliesOf(r.p, itersSeries)
	if len(anoms) != 2 {
		t.Fatalf("second regression did not fire: %+v", anoms)
	}
	if anoms[1].ProfilePath != "" {
		t.Fatalf("second anomaly captured inside ProfileMinGap: %+v", anoms[1])
	}
}

// --- disabled path ------------------------------------------------------

// TestNilPlaneDisabled: every method on a nil plane is a safe no-op — the
// disabled contract shared with telemetry, monitor, audit and in-situ.
func TestNilPlaneDisabled(t *testing.T) {
	var p *Plane
	p.SampleExchange(1, 0.1, nil)
	p.OnAnomaly(func(Anomaly) {})
	p.ApplyState(&State{Samples: 3})
	if p.Samples() != 0 || p.AnomalyTotal() != 0 || p.SampleCost() != 0 {
		t.Fatal("nil plane reported non-zero state")
	}
	if p.Doc("", 0, 0) != nil || p.CaptureState() != nil || p.Anomalies() != nil || p.Stats() != nil {
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
	r := newRig(Options{})
	r.feed(10, 6)
	raw, err := r.p.HistoryJSON("", 0, 0)
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
	if want := r.p.Doc("", 0, 0); !reflect.DeepEqual(d, want) {
		t.Fatalf("loaded doc diverged:\ngot  %+v\nwant %+v", d, want)
	}
	if _, err := LoadDoc(t.TempDir() + "/missing.json"); err == nil {
		t.Fatal("missing file did not error")
	}
}

// TestStats: the monitor.Stat bridge exposes the plane's own meters.
func TestStats(t *testing.T) {
	r := newRig(Options{})
	r.feed(10, Warmup+4)
	r.feed(30, Sustain)
	got := map[string]float64{}
	for _, s := range r.p.Stats() {
		key := s.Name
		for _, l := range s.Labels {
			key += "{" + l[0] + "=" + l[1] + "}"
		}
		got[key] = s.Value
	}
	if want := float64(Warmup + 4 + Sustain); got["history_samples_total"] != want {
		t.Errorf("history_samples_total = %g, want %g", got["history_samples_total"], want)
	}
	if want := float64(len(r.p.Doc("", 0, 0).Series)); got["history_series"] != want {
		t.Errorf("history_series = %g, want %g", got["history_series"], want)
	}
	if got["history_anomalies_total{kind=cg-inflation}"] != 1 {
		t.Errorf("anomaly counter = %g, want 1 (%v)", got["history_anomalies_total{kind=cg-inflation}"], got)
	}
}
