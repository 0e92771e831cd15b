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

// The plane's capacities, detector settings and profile limits. One series
// spans the last RawCap samples raw, the last RawCap·TierFactor at
// TierFactor× and the last RawCap·TierFactor² at TierFactor²×, in ~112 KiB.
const (
	// RawCap is the raw ring capacity per series.
	RawCap = 1024
	// TierFactor is the downsample factor between tiers.
	TierFactor = 16
	// TierCap is the bin-ring capacity per tier.
	TierCap = 1024
	// Tiers is how many downsample tiers each series keeps.
	Tiers = 2
	// MaxSeries bounds how many distinct series the plane creates; a gauge
	// namespace explosion is refused, not stored.
	MaxSeries = 512
	// MaxAnomalies bounds the retained anomaly log (a ring: the oldest
	// entries go first; totals stay exact).
	MaxAnomalies = 256

	// Alpha is the EWMA weight of the baselines: a half-life of ~14
	// samples, so drift slower than that is absorbed and faster alarms.
	Alpha = 0.05
	// Warmup is how many samples a baseline needs before it may fire.
	Warmup = 16
	// Sustain is how many consecutive above-threshold samples complete an
	// anomaly: single-sample noise never fires.
	Sustain = 3
	// Z is the one-sided z-score threshold.
	Z = 4.0

	// ProfileWindow is the length of an anomaly-triggered CPU profile.
	ProfileWindow = time.Second
	// ProfileLimit caps the captures per run.
	ProfileLimit = 2
	// ProfileMinGap is the minimum spacing between captures.
	ProfileMinGap = 30 * time.Second
)

// Options configures a Plane.
type Options struct {
	// ProfileDir enables anomaly-triggered pprof CPU profile capture into
	// the given directory ("" disables).
	ProfileDir string
}

// Plane is the performance-history store of one process. Create with New;
// all methods are safe for concurrent use, and every method on a nil *Plane
// is a no-op (the disabled path).
type Plane struct {
	prof *profiler

	mu        sync.Mutex
	series    map[string]*Series
	order     []string // creation order, for stable exposition
	anomalies []Anomaly
	anomHead  int
	anomTotal [numKinds]int64
	samples   int64
	lastStep  int64
	sampleNs  int64 // cumulative cost of SampleExchange (the <1% budget)

	hookMu sync.Mutex
	hooks  []func(Anomaly)
}

// New builds a plane.
func New(opts Options) *Plane {
	p := &Plane{series: map[string]*Series{}}
	if opts.ProfileDir != "" {
		p.prof = &profiler{dir: opts.ProfileDir}
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
			if d, ok := p.observeLocked(&fired, sn, KindOther, step, s.Total, true); ok {
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
	p.sampleRuntimeLocked(&fired, step)
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
// first use (up to MaxSeries; excess signals are dropped). cum selects
// cumulative-counter semantics: v is a running total, the series stores its
// per-sample delta, the first observation only seeds the reference, and a
// counter that moved backwards (restore, counter reset) re-seeds without a
// bogus negative sample. It returns the value stored; ok is false when
// nothing was. Fired anomalies are appended to *fired for post-lock
// handling.
func (p *Plane) observeLocked(fired *[]Anomaly, name string, kind Kind, step int64, v float64, cum bool) (stored float64, ok bool) {
	s := p.series[name]
	if s == nil {
		if len(p.series) >= MaxSeries {
			return 0, false
		}
		s = newSeries(name, kind)
		p.series[name] = s
		p.order = append(p.order, name)
	}
	if cum {
		if !s.hasPrev || v < s.prevCum {
			s.prevCum, s.hasPrev = v, true
			return 0, false
		}
		v, s.prevCum = v-s.prevCum, v
	}
	if f, a := s.observe(step, v); f {
		*fired = append(*fired, a)
	}
	return v, true
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
		if len(p.anomalies) < MaxAnomalies {
			p.anomalies = append(p.anomalies, a)
		} else {
			p.anomalies[p.anomHead] = a
			p.anomHead = (p.anomHead + 1) % MaxAnomalies
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

// Stats is the monitor.Stat bridge: the plane's own meters for /metrics and
// the fleet rollup (monitor.Attach registers it).
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
