package history

// One Series is the bounded time-series of a single scalar signal. Three
// storage layers keep memory constant no matter how long the run is:
//
//	raw ring    — the last RawCap samples, full resolution
//	tier rings  — streamed downsamples: tier i folds TierFactor^(i+1)
//	              consecutive raw samples into one Bin carrying the min/max
//	              envelope, sum and count of the window, into its own
//	              fixed-capacity ring
//	summary     — exact running aggregate over the whole run (never wraps)
//
// Each tier consumes the raw sample stream independently, so a Bin's
// envelope is exactly the min/max of the raw samples it covers — wrap-around
// of the raw ring cannot corrupt older tiers. With the defaults (raw 1024,
// two tiers of 1024 bins at factors 16 and 256) one series spans the last
// 1024 samples raw, the last ~16k at 16× and the last ~262k at 256×, in
// ~112 KiB per series.

// Point is one raw sample: the exchange index it was taken at and the value.
type Point struct {
	Step int64   `json:"step"`
	V    float64 `json:"v"`
}

// Bin is one downsampled window: the covered exchange range and the
// envelope/aggregate of the raw samples inside it.
type Bin struct {
	Step0 int64   `json:"step0"`
	Step1 int64   `json:"step1"`
	Count int64   `json:"count"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Sum   float64 `json:"sum"`
}

// fold merges one raw sample into the bin.
func (b *Bin) fold(step int64, v float64) {
	if b.Count == 0 {
		b.Step0, b.Min, b.Max = step, v, v
	} else {
		if v < b.Min {
			b.Min = v
		}
		if v > b.Max {
			b.Max = v
		}
	}
	b.Step1 = step
	b.Count++
	b.Sum += v
}

// Summary is the exact whole-run aggregate of a series (the perf-report
// currency: it never loses samples to ring wrap).
type Summary struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Last  float64 `json:"last"`
}

// Mean returns Sum/Count (0 when empty).
func (s Summary) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

func (s *Summary) add(v float64) {
	if s.Count == 0 {
		s.Min, s.Max = v, v
	} else {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Count++
	s.Sum += v
	s.Last = v
}

// tier is one downsample level: an accumulator bin filling toward `factor`
// raw samples plus a ring of completed bins.
type tier struct {
	factor int // raw samples per completed bin
	cap    int
	bins   []Bin
	head   int // next overwrite position once len == cap
	acc    Bin
}

func (t *tier) observe(step int64, v float64) {
	t.acc.fold(step, v)
	if int(t.acc.Count) >= t.factor {
		t.push(t.acc)
		t.acc = Bin{}
	}
}

func (t *tier) push(b Bin) {
	if len(t.bins) < t.cap {
		t.bins = append(t.bins, b)
		return
	}
	t.bins[t.head] = b
	t.head = (t.head + 1) % t.cap
}

// ordered returns the completed bins in chronological order.
func (t *tier) ordered() []Bin {
	out := make([]Bin, 0, len(t.bins))
	out = append(out, t.bins[t.head:]...)
	out = append(out, t.bins[:t.head]...)
	return out
}

// Series is one signal's bounded history plus its anomaly baseline. All
// access is serialized by the owning Plane's mutex.
type Series struct {
	name string
	kind Kind

	sum   Summary
	raw   []Point
	head  int
	cap   int
	tiers []*tier

	// Cumulative-input bookkeeping for observeCum (stage totals, traffic
	// byte counters, GC totals): the series stores per-sample deltas, and
	// the first observation only seeds the reference.
	prevCum float64
	hasPrev bool

	det detector
}

func newSeries(name string, kind Kind, o Options) *Series {
	s := &Series{name: name, kind: kind, cap: o.RawCap}
	f := o.TierFactor
	for i := 0; i < o.Tiers; i++ {
		s.tiers = append(s.tiers, &tier{factor: f, cap: o.TierCap})
		f *= o.TierFactor
	}
	rel, abs := kind.floors()
	s.det = detector{
		alpha: o.Alpha, warmup: o.Warmup, sustain: o.Sustain, zmax: o.Z,
		relFloor: rel, absFloor: abs,
	}
	return s
}

// observe records one sample and runs the detector (for alarmable kinds).
// It reports whether a sustained excursion completed on this sample.
func (s *Series) observe(step int64, v float64) (fired bool, a Anomaly) {
	s.sum.add(v)
	s.pushRaw(Point{Step: step, V: v})
	for _, t := range s.tiers {
		t.observe(step, v)
	}
	if s.kind == KindOther {
		return false, Anomaly{}
	}
	fire, z, baseline := s.det.observe(v)
	if !fire {
		return false, Anomaly{}
	}
	return true, Anomaly{
		Kind: s.kind, Series: s.name, Step: step,
		Value: v, Baseline: baseline, Z: z, Sustained: s.det.sustain,
	}
}

// observeCum converts a monotone cumulative counter into the per-sample
// delta series. The first call seeds the reference; a counter that moved
// backwards (restore, counter reset) re-seeds without recording a bogus
// negative sample.
func (s *Series) observeCum(step int64, cum float64) (fired bool, a Anomaly) {
	if !s.hasPrev || cum < s.prevCum {
		s.prevCum, s.hasPrev = cum, true
		return false, Anomaly{}
	}
	d := cum - s.prevCum
	s.prevCum = cum
	return s.observe(step, d)
}

func (s *Series) pushRaw(p Point) {
	if len(s.raw) < s.cap {
		s.raw = append(s.raw, p)
		return
	}
	s.raw[s.head] = p
	s.head = (s.head + 1) % s.cap
}

// points returns the raw ring in chronological order.
func (s *Series) points() []Point {
	out := make([]Point, 0, len(s.raw))
	out = append(out, s.raw[s.head:]...)
	out = append(out, s.raw[:s.head]...)
	return out
}
