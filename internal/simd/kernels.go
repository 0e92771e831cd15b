// Package simd reproduces the single-core performance-tuning study of the
// paper (§3.5, Table 1). The original code SIMDized three hot kernels with
// SSE (Cray XT5) and Double-Hummer (Blue Gene/P) intrinsics:
//
//	z[i] = x[i]*y[i]          (element-wise product)
//	a    = Σ x[i]*y[i]*z[i]   (triple-product reduction)
//	a    = Σ x[i]*y[i]*y[i]   (weighted square reduction)
//
// Go has no intrinsics, so the "tuned" variants apply the same class of
// transformations the paper's intrinsics code relied on: 16-byte-friendly
// access order, 4-way unrolling with independent accumulators (exposing the
// instruction-level parallelism a vector unit exploits), and explicit slice
// length hoisting to eliminate bounds checks. The scalar references are the
// straightforward loops a compiler gets without "#pragma" help.
//
// The line kernels that own a spectral-element time step — the x-line
// mat-vecs (MatVecs), the y/z contractions (Contract), the band product
// (BandMulAdd) and the two-column sweeps (Sweep, SweepRows) — are AVX2
// assembly on amd64 (avx2_amd64.s), chosen once from CPUID. Each performs
// the same IEEE operations in the same order for every output element as
// its Go loop, with no fused multiply-add, so the two give the same bits;
// the Go loops are the portable path and the oracle. Every product in this
// package's Go loops is rounded by float64() before its add, so that no
// compiler fuses them (TestNoFusedMultiplyAdd).
package simd

// MulScalar computes z[i] = x[i]*y[i] one element at a time. It is the
// reference implementation for Table 1 row 1.
func MulScalar(z, x, y []float64) {
	if len(x) != len(y) || len(z) != len(x) {
		panic("simd: MulScalar length mismatch")
	}
	for i := 0; i < len(z); i++ {
		z[i] = x[i] * y[i]
	}
}

// MulTuned computes z[i] = x[i]*y[i] with 4-way unrolling. The explicit
// re-slicing pins all three slices to a common length so the compiler drops
// per-iteration bounds checks, mirroring the aligned SIMD loads of the paper.
func MulTuned(z, x, y []float64) {
	if len(x) != len(y) || len(z) != len(x) {
		panic("simd: MulTuned length mismatch")
	}
	n := len(z)
	x = x[:n]
	y = y[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		z[i] = x[i] * y[i]
		z[i+1] = x[i+1] * y[i+1]
		z[i+2] = x[i+2] * y[i+2]
		z[i+3] = x[i+3] * y[i+3]
	}
	for ; i < n; i++ {
		z[i] = x[i] * y[i]
	}
}

// Dot3Scalar computes Σ x[i]*y[i]*z[i] with a single accumulator, the
// reference implementation for Table 1 row 2.
func Dot3Scalar(x, y, z []float64) float64 {
	if len(x) != len(y) || len(z) != len(x) {
		panic("simd: Dot3Scalar length mismatch")
	}
	var a float64
	for i := 0; i < len(x); i++ {
		a += float64(x[i] * y[i] * z[i])
	}
	return a
}

// Dot3Tuned computes Σ x[i]*y[i]*z[i] with four independent accumulators,
// breaking the loop-carried dependence the same way a two-wide FMA pipe does.
// Floating-point association differs from the scalar loop by design; tests
// bound the discrepancy.
func Dot3Tuned(x, y, z []float64) float64 {
	if len(x) != len(y) || len(z) != len(x) {
		panic("simd: Dot3Tuned length mismatch")
	}
	n := len(x)
	y = y[:n]
	z = z[:n]
	var a0, a1, a2, a3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		a0 += float64(x[i] * y[i] * z[i])
		a1 += float64(x[i+1] * y[i+1] * z[i+1])
		a2 += float64(x[i+2] * y[i+2] * z[i+2])
		a3 += float64(x[i+3] * y[i+3] * z[i+3])
	}
	a := (a0 + a1) + (a2 + a3)
	for ; i < n; i++ {
		a += float64(x[i] * y[i] * z[i])
	}
	return a
}

// DotSqScalar computes Σ x[i]*y[i]*y[i], the reference for Table 1 row 3.
func DotSqScalar(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("simd: DotSqScalar length mismatch")
	}
	var a float64
	for i := 0; i < len(x); i++ {
		a += float64(x[i] * y[i] * y[i])
	}
	return a
}

// DotSqTuned computes Σ x[i]*y[i]*y[i] with four accumulators and a hoisted
// y*y temporary.
func DotSqTuned(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("simd: DotSqTuned length mismatch")
	}
	n := len(x)
	y = y[:n]
	var a0, a1, a2, a3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		y0 := y[i]
		y1 := y[i+1]
		y2 := y[i+2]
		y3 := y[i+3]
		a0 += float64(x[i] * y0 * y0)
		a1 += float64(x[i+1] * y1 * y1)
		a2 += float64(x[i+2] * y2 * y2)
		a3 += float64(x[i+3] * y3 * y3)
	}
	a := (a0 + a1) + (a2 + a3)
	for ; i < n; i++ {
		a += float64(x[i] * y[i] * y[i])
	}
	return a
}

// Axpy computes y[i] += alpha*x[i], the update of a CG iteration.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("simd: Axpy length mismatch")
	}
	axpyGo(alpha, x, y)
}

// axpyGo is Axpy's loop, 4-way unrolled, and the inner loop of contractGo
// and the band products. float64() rounds each product before its add, so
// that no compiler fuses the two (arm64, GOAMD64=v3).
func axpyGo(alpha float64, x, y []float64) {
	n := len(y)
	x = x[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] += float64(alpha * x[i])
		y[i+1] += float64(alpha * x[i+1])
		y[i+2] += float64(alpha * x[i+2])
		y[i+3] += float64(alpha * x[i+3])
	}
	for ; i < n; i++ {
		y[i] += float64(alpha * x[i])
	}
}

// Dot computes Σ x[i]*y[i] with four accumulators.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("simd: Dot length mismatch")
	}
	n := len(x)
	y = y[:n]
	var a0, a1, a2, a3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		a0 += float64(x[i] * y[i])
		a1 += float64(x[i+1] * y[i+1])
		a2 += float64(x[i+2] * y[i+2])
		a3 += float64(x[i+3] * y[i+3])
	}
	a := (a0 + a1) + (a2 + a3)
	for ; i < n; i++ {
		a += float64(x[i] * y[i])
	}
	return a
}
