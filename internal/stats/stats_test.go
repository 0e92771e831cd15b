package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestMomentsAgainstDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 5
	}
	var m Moments
	m.AddAll(xs)
	// Direct two-pass computation.
	var mean float64
	for _, x := range xs {
		mean += x / float64(len(xs))
	}
	var v float64
	for _, x := range xs {
		v += (x - mean) * (x - mean)
	}
	v /= float64(len(xs) - 1)
	if math.Abs(m.Mean()-mean) > 1e-12 {
		t.Fatalf("mean %v vs %v", m.Mean(), mean)
	}
	if math.Abs(m.Variance()-v) > 1e-10 {
		t.Fatalf("var %v vs %v", m.Variance(), v)
	}
}

func TestHistogramPDFIntegratesToOne(t *testing.T) {
	h := NewHistogram(-5, 5, 100)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100000; i++ {
		h.Add(rng.NormFloat64())
	}
	pdf := h.PDF()
	w := 10.0 / 100
	var total float64
	for _, p := range pdf {
		total += p * w
	}
	// Nearly all normal mass lies in [-5,5].
	if math.Abs(total-1) > 0.001 {
		t.Fatalf("pdf mass = %v", total)
	}
}

func TestHistogramOutOfRange(t *testing.T) {
	h := NewHistogram(0, 1, 10)
	h.AddAll([]float64{-1, 0.5, 2, 1.0}) // 1.0 is outside the half-open range
	if want := []int{0, 0, 0, 0, 0, 1, 0, 0, 0, 0}; !slices.Equal(h.Counts, want) {
		t.Fatalf("counts = %v, want only 0.5 binned", h.Counts)
	}
	// The three out-of-range samples still count in the normalization:
	// one of four samples in a bin of width 0.1.
	if pdf := h.PDF(); math.Abs(pdf[5]-2.5) > 1e-12 {
		t.Fatalf("pdf[5] = %v, want 2.5", pdf[5])
	}
}

func TestHistogramBoundaryBin(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	h.Add(0)        // first bin
	h.Add(0.999999) // last bin
	h.Add(0.25)     // second bin exactly on edge
	if h.Counts[0] != 1 || h.Counts[3] != 1 || h.Counts[1] != 1 {
		t.Fatalf("counts = %v", h.Counts)
	}
}

func TestGaussianPDFPeak(t *testing.T) {
	peak := GaussianPDF(0, 0, 1)
	want := 1 / math.Sqrt(2*math.Pi)
	if math.Abs(peak-want) > 1e-14 {
		t.Fatalf("peak = %v want %v", peak, want)
	}
	if GaussianPDF(1, 0, 1) >= peak {
		t.Fatal("density should decrease away from mean")
	}
}

func TestGaussianFitDetection(t *testing.T) {
	// Samples from N(0, 1.03): L2 distance to the matching Gaussian must be
	// far smaller than to a badly mismatched one. This is the Fig 7 check.
	rng := rand.New(rand.NewSource(11))
	h := NewHistogram(-5, 5, 60)
	for i := 0; i < 200000; i++ {
		h.Add(rng.NormFloat64() * 1.03)
	}
	good := h.L2PDFDistance(0, 1.03)
	bad := h.L2PDFDistance(0, 2.5)
	if good >= bad/4 {
		t.Fatalf("gaussian fit not discriminating: good=%v bad=%v", good, bad)
	}
}

func TestRMSE(t *testing.T) {
	if got := RMSE([]float64{1, 2}, []float64{1, 2}); got != 0 {
		t.Fatalf("RMSE identical = %v", got)
	}
	if got := RMSE([]float64{0, 0}, []float64{3, 4}); math.Abs(got-math.Sqrt(12.5)) > 1e-14 {
		t.Fatalf("RMSE = %v", got)
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("hist bounds", func() { NewHistogram(1, 1, 4) })
	mustPanic("hist bins", func() { NewHistogram(0, 1, 0) })
	mustPanic("gauss sigma", func() { GaussianPDF(0, 0, 0) })
	mustPanic("rmse len", func() { RMSE([]float64{1}, []float64{1, 2}) })
}
