package history

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Kind types a performance anomaly — the taxonomy the issue tracker, the
// journal and the fleet rollup all speak. Each kind maps to one class of
// sustained regression the paper's long coupled runs actually exhibited:
// CG iteration counts inflating as the flow develops, coupling traffic
// growth, creeping patch imbalance.
type Kind uint8

// Anomaly kinds. KindOther marks series that are recorded for history and
// perf-report diffing but never feed the detector (particle populations,
// per-stage seconds — quantities whose growth is not by itself a fault).
const (
	// KindStepTime is a step-time regression: the wall time of one full
	// coupling exchange rose and stayed risen.
	KindStepTime Kind = iota
	// KindCGIteration is CG-iteration inflation: a pressure or Helmholtz
	// solve needs sustainedly more iterations than its baseline.
	KindCGIteration
	// KindTraffic is an MCI traffic spike: coupling-plane bytes per
	// exchange grew past the rolling baseline.
	KindTraffic
	// KindImbalance is imbalance drift: the max/mean ratio of per-patch
	// step time crept up — the straggler signature.
	KindImbalance
	// KindAlloc is GC/alloc growth: the per-exchange allocation rate rose,
	// the leading indicator of GC pressure eating step time.
	KindAlloc
	// KindOther marks untyped series: stored, diffed, never alarmed on.
	KindOther
	numKinds
)

var kindNames = [numKinds]string{
	KindStepTime:    "step-time",
	KindCGIteration: "cg-inflation",
	KindTraffic:     "traffic-spike",
	KindImbalance:   "imbalance-drift",
	KindAlloc:       "alloc-growth",
	KindOther:       "untyped",
}

// String returns the kind's wire name (journal events, /anomalies JSON).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "untyped"
}

// MarshalJSON renders the kind as its wire name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON parses a wire name back into a kind (perf-report loads the
// documents /history and -history-out emit).
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, n := range kindNames {
		if n == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("history: unknown anomaly kind %q", s)
}

// Anomaly is one detected performance regression: which series, at which
// exchange, how far above baseline and for how long. ProfilePath names the
// auto-captured pprof CPU profile when one was taken (rate limiting or a
// concurrent -cpuprofile can suppress it).
type Anomaly struct {
	Kind        Kind    `json:"kind"`
	Series      string  `json:"series"`
	Step        int64   `json:"step"`
	Value       float64 `json:"value"`
	Baseline    float64 `json:"baseline"`
	Z           float64 `json:"z"`
	Sustained   int     `json:"sustained"`
	ProfilePath string  `json:"profile,omitempty"`
}

// detector is the rolling statistical baseline of one series: an EWMA mean
// plus an EWMA absolute deviation (a streaming MAD stand-in; the 1.4826
// factor below rescales it to a σ-equivalent under normality). An anomaly
// fires only on a *sustained* one-sided excursion — Sustain consecutive
// samples with z above Z — never on single-sample noise, and
// never during warm-up. After firing, the baseline re-seeds at the new
// level and re-warms, so a plateau regression fires exactly once while a
// further regression on top of it can fire again.
//
// The EWMA α sets what "drift" means: with Alpha = 0.05 the baseline's
// half-life is ~14 samples, so inflation slower than that is absorbed as
// legitimate flow development and only faster-than-baseline growth alarms.
//
// Two refinements keep that α honest in practice. During warm-up the
// updates run at the faster warmupAlpha: real runs open with a development
// ramp (CG iteration counts settling, caches filling), and tracking it
// slowly would leave the deviation permanently inflated by the ramp error —
// a regression landing after warm-up would then drown in a scale it did not
// cause. And while a streak is building, the suspect samples are NOT folded
// into the baseline: absorbing them would pull the mean up underneath the
// excursion, so a moderate sustained regression could never complete its
// streak.
type detector struct {
	relFloor float64 // deviation floor as a fraction of |mean|
	absFloor float64 // deviation floor in series units

	mean, dev float64
	n         int // samples since (re)seed
	streak    int
	fired     int64
}

// observe folds one sample and reports whether it completes a sustained
// excursion. The returned z and baseline describe the moment of firing.
func (d *detector) observe(v float64) (fire bool, z, baseline float64) {
	if d.n == 0 {
		d.mean, d.dev = v, 0
		d.n = 1
		return false, 0, v
	}
	scale := 1.4826 * d.dev
	if m := d.relFloor * abs(d.mean); m > scale {
		scale = m
	}
	if d.absFloor > scale {
		scale = d.absFloor
	}
	baseline = d.mean
	if scale > 0 {
		z = (v - d.mean) / scale
	}
	if d.n >= Warmup && scale > 0 && z > Z {
		d.streak++
		if d.streak >= Sustain {
			d.fired++
			d.mean, d.dev = v, 0
			d.n = 1
			d.streak = 0
			return true, z, baseline
		}
		// Suspect sample, streak building: judged against the frozen
		// baseline, not folded into it.
		return false, z, baseline
	}
	d.streak = 0
	a := Alpha
	if d.n < Warmup {
		a = warmupAlpha
	}
	// Deviation first, against the pre-update mean, then the mean itself —
	// the usual EW update order so dev measures scatter around the baseline
	// the sample was judged against.
	d.dev += float64(a * (abs(v-d.mean) - d.dev))
	d.mean += float64(a * (v - d.mean))
	d.n++
	return false, z, baseline
}

// warmupAlpha is the EWMA weight used while a baseline warms up (half-life
// ~2.4 samples): fast enough that an opening ramp is fully tracked — mean on
// the plateau, deviation re-shrunk to plateau noise — by the time the
// detector arms.
const warmupAlpha = 0.25

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// floors returns the kind-specific deviation floors. They encode what a
// *meaningful* regression is per signal class, so an unperturbed run stays
// quiet: a CG solve must inflate by whole iterations, traffic by real
// kilobytes, step time by a double-digit percentage — not by scheduler
// jitter around a tiny variance.
func (k Kind) floors() (rel, abs float64) {
	switch k {
	case KindStepTime:
		return 0.10, 0
	case KindCGIteration:
		return 0.10, 2
	case KindTraffic:
		return 0.25, 4096
	case KindImbalance:
		return 0.10, 0.1
	case KindAlloc:
		return 0.25, 1 << 20
	default:
		return 0, 0
	}
}

// classify assigns the anomaly kind a series feeds by its name. Everything
// unmatched is KindOther: recorded, never alarmed.
func classify(name string) Kind {
	switch {
	case name == seriesStepSeconds:
		return KindStepTime
	case strings.HasSuffix(name, ".iters"):
		return KindCGIteration
	case strings.HasPrefix(name, "traffic.") && strings.HasSuffix(name, ".bytes"):
		return KindTraffic
	case strings.HasPrefix(name, "imbalance."):
		return KindImbalance
	case name == seriesAllocRate:
		return KindAlloc
	default:
		return KindOther
	}
}
