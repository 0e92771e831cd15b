package main

// Sampling primitives: the percentile rule, process CPU time, hypervisor
// steal, heap readings, and the named-metric table.

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (mean of the two middle values for an even count); 0 when
// empty.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailPercentiles are the candidates of the percentile rule, highest first.
var tailPercentiles = []int{99, 95, 90, 75}

// highPercentile applies the reporting rule for a timing's tail: the highest
// of p99/p95/p90/p75 that has at least ten samples beyond it. ok is false
// when even p75 has fewer (under 40 samples).
func highPercentile(xs []float64) (pct int, value float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	for _, p := range tailPercentiles {
		// The nearest-rank value: at least p% of the samples are <= it.
		rank := (n*p + 99) / 100
		if rank >= 1 && n-rank >= 10 {
			return p, s[rank-1], true
		}
	}
	return 0, 0, false
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// cpuTicks reads the aggregate cpu line of /proc/stat: steal ticks and the
// total over all states. ok is false where /proc/stat is missing.
func cpuTicks() (steal, total float64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already inside user, so stop at steal.
	for i, s := range f[1:9] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stamp is one reading of every clock the harness keeps: wall, process CPU
// and the host's steal counters.
type stamp struct {
	wall         time.Time
	cpu          float64
	steal, ticks float64
}

func now() stamp {
	st := stamp{wall: time.Now(), cpu: cpuSeconds()}
	st.steal, st.ticks, _ = cpuTicks()
	return st
}

// sample is what one interval cost.
type sample struct {
	Wall   float64 // wall seconds
	CPU    float64 // process CPU seconds (user+sys)
	Stolen float64 // CPU-seconds the hypervisor withheld from the VM meanwhile
}

// stealSince is the fraction of the host's CPU time the hypervisor took from
// this VM since an earlier stamp; ok is false where /proc/stat gave nothing.
func (b stamp) stealSince(a stamp) (frac float64, ok bool) {
	if b.ticks <= a.ticks {
		return 0, false
	}
	return (b.steal - a.steal) / (b.ticks - a.ticks), true
}

// since is the interval from an earlier stamp to this one.
func (b stamp) since(a stamp) sample {
	iv := sample{Wall: b.wall.Sub(a.wall).Seconds(), CPU: b.cpu - a.cpu}
	if dt := b.ticks - a.ticks; dt > 0 {
		iv.Stolen = (b.steal - a.steal) / dt * float64(runtime.NumCPU()) * iv.Wall
	}
	return iv
}

// net is the interval's wall time net of hypervisor steal: what it would
// have taken had the VM kept its CPUs. The process wanted CPU+Stolen
// CPU-seconds and got CPU of them, so the same share of the wall time was
// its own: a fully parallel interval loses Stolen/nproc seconds, a
// single-threaded one all of Stolen. Equal to Wall where steal is zero or
// unmeasured.
func (iv sample) net() float64 {
	if iv.CPU <= 0 || iv.Stolen <= 0 {
		return iv.Wall
	}
	return iv.Wall * iv.CPU / (iv.CPU + iv.Stolen)
}

// sampleValues maps samples through one of their readings.
func sampleValues(ivs []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ivs))
	for i, iv := range ivs {
		out[i] = f(iv)
	}
	return out
}

func walls(ivs []sample) []float64 {
	return sampleValues(ivs, func(iv sample) float64 { return iv.Wall })
}

// timeMedian runs fn reps times and returns the median wall seconds.
func timeMedian(reps int, fn func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		t0 := time.Now()
		fn()
		ts[i] = time.Since(t0).Seconds()
	}
	return median(ts)
}

// fastest is the minimum of xs (0 when empty). It is the estimator of every
// gated timing: this host's noise — steal, and neighbours contending for
// the physical cores — only ever adds time, and it comes in stretches longer
// than a run, so the median of a run's samples moves 15-70 % from run to run
// while the least-disturbed sample moves 5-10 %.
func fastest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// noisySteal is the steal fraction above which a run is marked noisy.
const noisySteal = 0.10

// liveHeapMB forces a collection and returns the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// allocCounters reads the cumulative allocation counters.
func allocCounters() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// metric is one named, unit-carrying value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// format prints the named metrics in order, one per line.
func (m metrics) format(names []string) string {
	var b strings.Builder
	for _, n := range names {
		if v, ok := m[n]; ok {
			fmt.Fprintf(&b, "  %-32s %14.6g %s\n", n, v.Value, v.Unit)
		}
	}
	return b.String()
}
