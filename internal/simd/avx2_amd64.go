package simd

// useAVX2 selects the AVX2 line kernels (avx2_amd64.s). It is read from
// CPUID once: AVX, AVX2 and POPCNT in the processor, and the YMM state
// enabled by the operating system. The Go loops are the oracle each kernel
// must equal bit for bit.
var useAVX2 = cpuHasAVX2()

// HasAVX2 reports whether this processor and operating system run AVX2
// code, as one CPUID probe found it at start-up. Packages with AVX2 kernels
// of their own (the DPD pair sweep) choose them from it.
func HasAVX2() bool { return useAVX2 }

func cpuHasAVX2() bool {
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx, popcnt = 1 << 27, 1 << 28, 1 << 23
	if ecx1&(osxsave|avx|popcnt) != osxsave|avx|popcnt {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM and YMM state
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// matVecsAVX2 is MatVecs' line loop reading at, a's column-major form: up to
// sixteen rows are four vector sums held in registers while the columns
// stream past, and the last vector of a line is masked. The caller checks
// the dimensions; rows and cols must be positive.
//
//go:noescape
func matVecsAVX2(y, at, x []float64, rows, cols, lines, ystride, xstride int)

// contractAVX2 is contractGo with the sums in registers: per outer plane,
// per chunk of eight inner lanes (the last one masked) and per block of four
// output rows (then single rows), eight vector sums start at +0 and add
// a[r,c]·src[c] for each column c in turn. The caller checks the
// dimensions; all four must be positive.
//
//go:noescape
func contractAVX2(dst, src, a []float64, rows, cols, inner, outer int)

// sweepAVX2 is sweepGo, four elements of out per vector and the last vector
// masked. It checks every column's offset before it writes and returns false,
// leaving out as it was, when one is out of range.
//
//go:noescape
func sweepAVX2(out []float64, scale float64, vals []float64, cols []int, src []float64, base, stride int) (ok bool)

// sweepRowsAVX2 is sweepRowsGo from row 0, the sums in registers: per row,
// per chunk of sixteen lanes (the last one masked), the chunk of out is
// loaded once, gains each pair of columns and a last odd column in Sweep's
// order, and is stored once. It checks each row's pointers and columns
// (every column at most maxCol) before it writes the row and returns the
// index of the first row it did not do, so that the Go loop finishes (or
// panics) from there. The caller makes n positive and out at least
// (len(rowPtr)-1)·n long, and passes maxCol = (len(src)-n)/n >= 0.
//
//go:noescape
func sweepRowsAVX2(out []float64, scale float64, rowPtr, colIdx []int, val, src []float64, n, maxCol int) (done int)

// bandAVX2 is BandMulAdd's row loop, y[i] += c·s. Four rows whose columns
// are contiguous runs go per vector: each row's products come four at a
// time, are transposed so that lane l holds row l's next product, and are
// added in column order; a lane past its row's end adds +0, which leaves a
// sum started at +0 unchanged. Other rows go one at a time. It checks each
// row's pointers and columns before it writes the row and returns the index
// of the first row it did not do, so that the Go loop finishes (or panics)
// from there. len(rowPtr) must exceed len(y).
//
//go:noescape
func bandAVX2(y []float64, c float64, rowPtr, colIdx []int, val, x []float64) (done int)
