// Package history is the performance-history plane of the metasolver: an
// embedded, bounded-memory time-series store sampling every telemetry gauge,
// counter rate and per-stage span timing once per exchange period,
// with rolling statistical baselines that raise typed performance anomalies
// — step-time regression, CG-iteration inflation, MCI traffic spikes,
// imbalance drift, GC/alloc growth — on sustained z-score excursions.
//
// The paper's argument is a *sustained*-performance argument: a 131,072-core
// coupled run is only as good as its slowest week, and the failure modes
// that matter there (CG iterations inflating as the flow develops, coupling
// traffic creep, a patch slowly becoming the straggler) are invisible to a
// point-in-time /metrics scrape and already gone from a post-hoc trace ring.
// This plane is the layer between those two: cheap enough to sample every
// exchange, bounded enough to run for 10⁶ steps, and statistical enough to
// tell drift from noise.
//
// On anomaly the plane auto-captures a rate-limited pprof CPU profile
// window and fires registered hooks (cmd/nektarg wires those to a flight
// dump with its own budget and a fleet-journal event). Series persist into
// the checkpoint bundle (format v4) so baselines survive kill -9 — a
// regression that started before the checkpoint stays on the books after
// resume, exactly like the audit ledger's budgets.
//
// Disabled means nil, the same contract as every other plane: every method
// on a nil *Plane is a no-op costing one nil comparison, pinned at 0
// allocs/op by TestHistoryDisabledZeroCost in internal/core.
package history

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"nektarg/internal/monitor"
	"nektarg/internal/telemetry"
)

// Well-known series names. Everything else is derived:
//
//	stage.<track>.<name>.seconds  per-sample seconds spent in one span stage
//	gauge.<track>.<name>          latest value of one solver gauge
//	traffic.<track>.bytes|msgs    per-sample coupling-plane traffic
//	imbalance.<stage>             max/mean of per-track stage seconds
const (
	seriesStepSeconds = "step.seconds"
	seriesHeapBytes   = "runtime.heap_bytes"
	seriesAllocRate   = "runtime.alloc_bytes"
	seriesGCPause     = "runtime.gc_pause_ns"
	seriesGoroutines  = "runtime.goroutines"
)

// Options configures a Plane. The zero value selects the defaults listed on
// each field.
type Options struct {
	// RawCap is the raw ring capacity per series (default 1024).
	RawCap int
	// TierFactor is the downsample factor between tiers (default 16).
	TierFactor int
	// TierCap is the bin-ring capacity per tier (default 1024).
	TierCap int
	// Tiers is how many downsample tiers each series keeps (default 2).
	Tiers int
	// MaxSeries bounds how many distinct series the plane will create
	// (default 512); excess signals are counted, not stored, so a gauge
	// namespace explosion cannot grow memory unboundedly.
	MaxSeries int
	// MaxAnomalies bounds the retained anomaly log (default 256, ring:
	// oldest entries are dropped first; totals stay exact).
	MaxAnomalies int

	// Alpha is the EWMA weight of the baselines (default 0.05 — half-life
	// ~14 samples; drift slower than that is absorbed, faster alarms).
	Alpha float64
	// Warmup is how many samples a baseline needs before it may fire
	// (default 16).
	Warmup int
	// Sustain is how many consecutive above-threshold samples complete an
	// anomaly (default 3 — single-sample noise never fires).
	Sustain int
	// Z is the one-sided z-score threshold (default 4).
	Z float64

	// ProfileDir enables anomaly-triggered pprof CPU profile capture into
	// the given directory ("" disables).
	ProfileDir string
	// ProfileWindow is the capture window length (default 1s).
	ProfileWindow time.Duration
	// ProfileLimit caps auto-captures per run (default 2).
	ProfileLimit int
	// ProfileMinGap is the minimum spacing between captures (default 30s).
	ProfileMinGap time.Duration

	// NoRuntime skips the Go runtime series (heap, alloc rate, GC pause,
	// goroutines); tests that pin exact series sets use it.
	NoRuntime bool
}

func (o Options) withDefaults() Options {
	def := func(p *int, v int) {
		if *p <= 0 {
			*p = v
		}
	}
	def(&o.RawCap, 1024)
	def(&o.TierFactor, 16)
	def(&o.TierCap, 1024)
	def(&o.Tiers, 2)
	def(&o.MaxSeries, 512)
	def(&o.MaxAnomalies, 256)
	def(&o.Warmup, 16)
	def(&o.Sustain, 3)
	def(&o.ProfileLimit, 2)
	if o.Alpha <= 0 {
		o.Alpha = 0.05
	}
	if o.Z <= 0 {
		o.Z = 4
	}
	if o.ProfileWindow <= 0 {
		o.ProfileWindow = time.Second
	}
	if o.ProfileMinGap <= 0 {
		o.ProfileMinGap = 30 * time.Second
	}
	return o
}

// Plane is the performance-history store of one process. Create with New;
// all methods are safe for concurrent use, and every method on a nil *Plane
// is a no-op (the disabled path).
type Plane struct {
	o    Options
	prof *profiler

	mu        sync.Mutex
	series    map[string]*Series
	order     []string // creation order, for stable exposition
	overflow  int64    // signals refused by MaxSeries
	anomalies []Anomaly
	anomHead  int
	anomTotal [numKinds]int64
	samples   int64
	lastStep  int64
	sampleNs  int64 // cumulative cost of SampleExchange (the <1% budget)

	hookMu sync.Mutex
	hooks  []func(Anomaly)
}

// New builds a plane. Zero-value options select the documented defaults.
func New(opts Options) *Plane {
	o := opts.withDefaults()
	p := &Plane{o: o, series: map[string]*Series{}}
	if o.ProfileDir != "" {
		p.prof = &profiler{
			dir: o.ProfileDir, window: o.ProfileWindow,
			limit: o.ProfileLimit, minGap: o.ProfileMinGap,
		}
	}
	return p
}

// OnAnomaly registers a hook fired (outside the plane lock) for every
// detected anomaly, after profile capture so a.ProfilePath is final.
func (p *Plane) OnAnomaly(fn func(Anomaly)) {
	if p == nil || fn == nil {
		return
	}
	p.hookMu.Lock()
	p.hooks = append(p.hooks, fn)
	p.hookMu.Unlock()
}

// Observe records one sample of a named series, creating it (typed by name
// classification) on first use. The public seam for signals outside the
// telemetry registry and for tests.
func (p *Plane) Observe(name string, step int64, v float64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	var fired []Anomaly
	p.observeLocked(&fired, name, classify(name), step, v, false)
	p.noteStep(step)
	p.mu.Unlock()
	p.finish(fired)
}

// ObserveCum records a monotone cumulative counter; the series stores the
// per-sample delta. First call seeds, backwards movement re-seeds.
func (p *Plane) ObserveCum(name string, step int64, cum float64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	var fired []Anomaly
	p.observeLocked(&fired, name, classify(name), step, cum, true)
	p.noteStep(step)
	p.mu.Unlock()
	p.finish(fired)
}

// SampleExchange takes one full sample: the step wall time, every stage
// aggregate, gauge and traffic counter of the given recorders, the derived
// per-stage imbalance ratios and the Go runtime signals. The metasolver
// calls it once per due exchange; stepSeconds is the wall time of the
// exchange being sampled.
func (p *Plane) SampleExchange(step int64, stepSeconds float64, recs []*telemetry.Recorder) {
	if p == nil {
		return
	}
	t0 := time.Now()
	var fired []Anomaly
	p.mu.Lock()
	p.observeLocked(&fired, seriesStepSeconds, KindStepTime, step, stepSeconds, false)

	// Imbalance needs the per-track stage deltas of this sample, so the
	// recorder walk collects them on the way.
	type stageDelta struct {
		track string
		v     float64
	}
	imb := map[string][]stageDelta{}
	for _, r := range recs {
		track := r.Track()
		if track == "" {
			continue
		}
		r.VisitStages(func(name string, s telemetry.StageStats) {
			sn := "stage." + track + "." + name + ".seconds"
			d, ok := p.cumDelta(&fired, sn, KindOther, step, s.Total)
			if ok {
				imb[name] = append(imb[name], stageDelta{track, d})
			}
		})
		r.VisitGauges(func(name string, g telemetry.GaugeStats) {
			gn := "gauge." + track + "." + name
			p.observeLocked(&fired, gn, classify(gn), step, g.Last, false)
		})
		t := r.TrafficTotals()
		p.observeLocked(&fired, "traffic."+track+".bytes", KindTraffic, step, float64(t.Bytes), true)
		p.observeLocked(&fired, "traffic."+track+".msgs", KindOther, step, float64(t.Msgs), true)
	}
	for name, ds := range imb {
		if len(ds) < 2 {
			continue
		}
		var sum, max float64
		for _, d := range ds {
			sum += d.v
			if d.v > max {
				max = d.v
			}
		}
		mean := sum / float64(len(ds))
		if mean > 0 {
			p.observeLocked(&fired, "imbalance."+name, KindImbalance, step, max/mean, false)
		}
	}
	if !p.o.NoRuntime {
		p.sampleRuntimeLocked(&fired, step)
	}
	p.samples++
	p.noteStep(step)
	p.sampleNs += time.Since(t0).Nanoseconds()
	p.mu.Unlock()
	p.finish(fired)
}

// sampleRuntimeLocked folds the Go runtime signals in: live heap, the
// per-sample allocation rate (the KindAlloc detector input), GC pause delta
// and goroutine count.
func (p *Plane) sampleRuntimeLocked(fired *[]Anomaly, step int64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.observeLocked(fired, seriesHeapBytes, KindOther, step, float64(ms.HeapAlloc), false)
	p.observeLocked(fired, seriesAllocRate, KindAlloc, step, float64(ms.TotalAlloc), true)
	p.observeLocked(fired, seriesGCPause, KindOther, step, float64(ms.PauseTotalNs), true)
	p.observeLocked(fired, seriesGoroutines, KindOther, step, float64(runtime.NumGoroutine()), false)
}

// observeLocked routes one sample into its series, creating the series on
// first use (subject to MaxSeries). cum selects cumulative-counter
// semantics. Fired anomalies are appended to *fired for post-lock handling.
func (p *Plane) observeLocked(fired *[]Anomaly, name string, kind Kind, step int64, v float64, cum bool) {
	s := p.series[name]
	if s == nil {
		if len(p.series) >= p.o.MaxSeries {
			p.overflow++
			return
		}
		s = newSeries(name, kind, p.o)
		p.series[name] = s
		p.order = append(p.order, name)
	}
	var f bool
	var a Anomaly
	if cum {
		f, a = s.observeCum(step, v)
	} else {
		f, a = s.observe(step, v)
	}
	if f {
		*fired = append(*fired, a)
	}
}

// cumDelta is observeLocked's cumulative variant that also returns the
// delta it recorded (the imbalance computation reuses it). ok is false on
// the seeding sample.
func (p *Plane) cumDelta(fired *[]Anomaly, name string, kind Kind, step int64, cumV float64) (float64, bool) {
	s := p.series[name]
	if s == nil {
		if len(p.series) >= p.o.MaxSeries {
			p.overflow++
			return 0, false
		}
		s = newSeries(name, kind, p.o)
		p.series[name] = s
		p.order = append(p.order, name)
	}
	if !s.hasPrev || cumV < s.prevCum {
		s.prevCum, s.hasPrev = cumV, true
		return 0, false
	}
	d := cumV - s.prevCum
	s.prevCum = cumV
	if f, a := s.observe(step, d); f {
		*fired = append(*fired, a)
	}
	return d, true
}

func (p *Plane) noteStep(step int64) {
	if step > p.lastStep {
		p.lastStep = step
	}
}

// finish runs the anomaly response outside the plane lock: profile capture
// first (so hooks see the final ProfilePath), then the anomaly log, then
// the hooks.
func (p *Plane) finish(fired []Anomaly) {
	if len(fired) == 0 {
		return
	}
	for i := range fired {
		if p.prof != nil {
			fired[i].ProfilePath = p.prof.capture(fmt.Sprintf("%s-%d", fired[i].Kind, fired[i].Step))
		}
	}
	p.mu.Lock()
	for _, a := range fired {
		p.anomTotal[a.Kind]++
		if len(p.anomalies) < p.o.MaxAnomalies {
			p.anomalies = append(p.anomalies, a)
		} else {
			p.anomalies[p.anomHead] = a
			p.anomHead = (p.anomHead + 1) % p.o.MaxAnomalies
		}
	}
	p.mu.Unlock()
	p.hookMu.Lock()
	hooks := make([]func(Anomaly), len(p.hooks))
	copy(hooks, p.hooks)
	p.hookMu.Unlock()
	for _, a := range fired {
		for _, fn := range hooks {
			fn(a)
		}
	}
}

// Anomalies returns the retained anomaly log in chronological order.
func (p *Plane) Anomalies() []Anomaly {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Anomaly, 0, len(p.anomalies))
	out = append(out, p.anomalies[p.anomHead:]...)
	out = append(out, p.anomalies[:p.anomHead]...)
	return out
}

// AnomalyTotal returns how many anomalies have fired over the whole run
// (the retained log may be shorter).
func (p *Plane) AnomalyTotal() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for _, c := range p.anomTotal {
		n += c
	}
	return n
}

// Samples returns how many full SampleExchange calls have been taken.
func (p *Plane) Samples() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.samples
}

// SampleCost returns the cumulative wall time spent inside SampleExchange —
// the numerator of the <1%-of-step-time overhead budget the verify gate
// pins.
func (p *Plane) SampleCost() time.Duration {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return time.Duration(p.sampleNs)
}

// ProfilePaths returns the completed auto-captured profile files.
func (p *Plane) ProfilePaths() []string {
	if p == nil {
		return nil
	}
	return p.prof.completed()
}

// Stats is the monitor.Stat bridge: the plane's own meters for /metrics and
// the fleet rollup (cmd/nektarg registers it via Monitor.AddStatSource).
func (p *Plane) Stats() []monitor.Stat {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := []monitor.Stat{
		{Name: "history_samples_total", Help: "Performance-history samples taken.", Type: "counter", Value: float64(p.samples)},
		{Name: "history_series", Help: "Distinct performance-history series stored.", Type: "gauge", Value: float64(len(p.series))},
		{Name: "history_sample_seconds_total", Help: "Wall time spent taking history samples.", Type: "counter", Value: float64(p.sampleNs) / 1e9},
	}
	for k := Kind(0); k < numKinds; k++ {
		if k == KindOther {
			continue
		}
		out = append(out, monitor.Stat{
			Name:   "history_anomalies_total",
			Help:   "Performance anomalies detected, by kind.",
			Type:   "counter",
			Labels: [][2]string{{"kind", k.String()}},
			Value:  float64(p.anomTotal[k]),
		})
	}
	return out
}
