package history

// One Series is the bounded time-series of a single scalar signal. Three
// storage layers keep memory constant no matter how long the run is:
//
//	raw ring    — the last RawCap samples, full resolution
//	tier rings  — streamed downsamples: tier i folds TierFactor^(i+1)
//	              consecutive raw samples into one Bin carrying the min/max
//	              envelope, sum and count of the window, into its own
//	              TierCap ring, while the next Bin fills
//	summary     — exact running aggregate over the whole run (never wraps)
//
// Each tier consumes the raw sample stream independently, so a Bin's
// envelope is exactly the min/max of the raw samples it covers — wrap-around
// of the raw ring cannot corrupt older tiers.

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
// raw samples plus a TierCap ring of completed bins.
type tier struct {
	factor int // raw samples per completed bin
	bins   []Bin
	head   int // next overwrite position once len == TierCap
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
	if len(t.bins) < TierCap {
		t.bins = append(t.bins, b)
		return
	}
	t.bins[t.head] = b
	t.head = (t.head + 1) % TierCap
}

// ordered returns the completed bins in chronological order.
func (t *tier) ordered() []Bin {
	out := make([]Bin, 0, len(t.bins)+1)
	out = append(out, t.bins[t.head:]...)
	out = append(out, t.bins[:t.head]...)
	return out
}

// served returns what a document shows of the tier: the completed bins and,
// newest, the filling one, so the served window ends at the newest sample.
func (t *tier) served() []Bin {
	out := t.ordered()
	if t.acc.Count > 0 {
		out = append(out, t.acc)
	}
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
	tiers []*tier

	// Cumulative-input bookkeeping (stage totals, traffic byte counters, GC
	// totals): the series stores per-sample deltas, and the first
	// observation only seeds the reference (see Plane.observeLocked).
	prevCum float64
	hasPrev bool

	det detector
}

func newSeries(name string, kind Kind) *Series {
	s := &Series{name: name, kind: kind}
	f := TierFactor
	for i := 0; i < Tiers; i++ {
		s.tiers = append(s.tiers, &tier{factor: f})
		f *= TierFactor
	}
	s.det.relFloor, s.det.absFloor = kind.floors()
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
		Value: v, Baseline: baseline, Z: z, Sustained: Sustain,
	}
}

func (s *Series) pushRaw(p Point) {
	if len(s.raw) < RawCap {
		s.raw = append(s.raw, p)
		return
	}
	s.raw[s.head] = p
	s.head = (s.head + 1) % RawCap
}

// servedLen is how many entries tier t (0 = the raw ring) serves.
func (s *Series) servedLen(t int) int {
	if t == 0 {
		return len(s.raw)
	}
	tr := s.tiers[t-1]
	if tr.acc.Count > 0 {
		return len(tr.bins) + 1
	}
	return len(tr.bins)
}

// points returns the raw ring in chronological order.
func (s *Series) points() []Point {
	out := make([]Point, 0, len(s.raw))
	out = append(out, s.raw[s.head:]...)
	out = append(out, s.raw[:s.head]...)
	return out
}
