//go:build !amd64

package simd

// useAVX2 is false off amd64: the Go loops are the kernels.
var useAVX2 = false

// HasAVX2 reports false: there is no AVX2 code off amd64.
func HasAVX2() bool { return false }

func matVecsAVX2(y, at, x []float64, rows, cols, lines, ystride, xstride int) {
	panic("simd: the AVX2 kernels exist on amd64 only")
}

func contractAVX2(dst, src, a []float64, rows, cols, inner, outer int) {
	panic("simd: the AVX2 kernels exist on amd64 only")
}

func sweepAVX2(out []float64, scale float64, vals []float64, cols []int, src []float64, base, stride int) bool {
	panic("simd: the AVX2 kernels exist on amd64 only")
}

func sweepRowsAVX2(out []float64, scale float64, rowPtr, colIdx []int, val, src []float64, n, maxCol int) int {
	panic("simd: the AVX2 kernels exist on amd64 only")
}

func bandAVX2(y []float64, c float64, rowPtr, colIdx []int, val, x []float64) int {
	panic("simd: the AVX2 kernels exist on amd64 only")
}
