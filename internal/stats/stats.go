// Package stats provides the statistical tooling used to post-process
// atomistic data: online moments, histograms/PDFs and a Gaussian reference —
// everything needed for the fluctuation analysis of Figure 7, where the PDF
// of streamwise velocity oscillations is compared against a Gaussian with
// σ ≈ 1.03.
package stats

import (
	"fmt"
	"math"
)

// Moments accumulates running mean and variance with Welford's algorithm,
// which stays accurate over the billions of samples a DPD run produces.
type Moments struct {
	n    int
	mean float64
	m2   float64
}

// Add folds a sample into the accumulator.
func (m *Moments) Add(x float64) {
	m.n++
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += float64(d * (x - m.mean))
}

// AddAll folds a batch of samples.
func (m *Moments) AddAll(xs []float64) {
	for _, x := range xs {
		m.Add(x)
	}
}

// Mean returns the sample mean (0 for an empty accumulator).
func (m *Moments) Mean() float64 { return m.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (m *Moments) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// Histogram is a uniform-bin histogram over [Lo, Hi).
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram creates a histogram with nbins uniform bins over [lo, hi).
func NewHistogram(lo, hi float64, nbins int) *Histogram {
	if nbins < 1 || !(hi > lo) {
		panic(fmt.Sprintf("stats: bad histogram bounds [%v,%v) x %d", lo, hi, nbins))
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, nbins)}
}

// Add records one sample. Out-of-range samples fall in no bin but count
// towards the total, so the PDF normalization stays correct.
func (h *Histogram) Add(x float64) {
	h.total++
	if x < h.Lo || x >= h.Hi {
		return
	}
	i := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
	if i == len(h.Counts) { // guard against round-up at the boundary
		i--
	}
	h.Counts[i]++
}

// AddAll records a batch of samples.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

// BinCenters returns the midpoints of the bins.
func (h *Histogram) BinCenters() []float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	c := make([]float64, len(h.Counts))
	for i := range c {
		c[i] = h.Lo + float64((float64(i)+0.5)*w)
	}
	return c
}

// PDF returns the empirical probability density (normalized so the bin-sum
// times bin-width is the in-range fraction of the mass).
func (h *Histogram) PDF() []float64 {
	p := make([]float64, len(h.Counts))
	if h.total == 0 {
		return p
	}
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	for i, c := range h.Counts {
		p[i] = float64(c) / (float64(h.total) * w)
	}
	return p
}

// GaussianPDF evaluates the normal density with the given mean and sigma.
func GaussianPDF(x, mean, sigma float64) float64 {
	if sigma <= 0 {
		panic("stats: GaussianPDF needs sigma > 0")
	}
	z := (x - mean) / sigma
	return math.Exp(-0.5*z*z) / (sigma * math.Sqrt(2*math.Pi))
}

// L2PDFDistance returns the root-mean-square distance between the empirical
// PDF of h and the Gaussian(mean, sigma) density sampled at bin centers. It
// quantifies "the PDF is Gaussian" for Figure 7.
func (h *Histogram) L2PDFDistance(mean, sigma float64) float64 {
	pdf := h.PDF()
	centers := h.BinCenters()
	var s float64
	for i, p := range pdf {
		d := p - GaussianPDF(centers[i], mean, sigma)
		s += float64(d * d)
	}
	return math.Sqrt(s / float64(len(pdf)))
}

// RMSE returns the root-mean-square error between two equal-length series.
func RMSE(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("stats: RMSE length mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	return math.Sqrt(s / float64(len(a)))
}
