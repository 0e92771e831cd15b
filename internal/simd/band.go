package simd

// Sparse line kernels of the spectral-element operators on a box. A 1D
// factor (stiffness, averaged derivative) is a CSR band matrix, given here as
// its three arrays: row i holds val[rowPtr[i]:rowPtr[i+1]] in columns
// colIdx[rowPtr[i]:rowPtr[i+1]]. Along a contiguous x-line the factor is
// applied row by row (BandMulAdd); across lines, one row of the factor scales
// whole lines (Sweep), or every row does, each into its own output line
// (SweepRows). On amd64 with AVX2 each runs one assembly kernel per call
// that performs the same IEEE operations in the same order for every output
// element as the Go loops here, which are the portable path and the oracle
// (TestSEMKernelsMatchGo, FuzzSEMKernels).

// BandMulAdd adds c times row i of the CSR matrix (rowPtr, colIdx, val)
// times x to y[i], for every i in [0, len(y)). y must not alias x.
func BandMulAdd(y []float64, c float64, rowPtr, colIdx []int, val, x []float64) {
	_ = rowPtr[len(y)] // bandAVX2 reads rowPtr[:len(y)+1] unchecked
	i := 0
	if useAVX2 {
		i = bandAVX2(y, c, rowPtr, colIdx, val, x)
	}
	for ; i < len(y); i++ {
		y[i] += float64(c * rowDot(rowPtr, colIdx, val, i, x))
	}
}

// rowDot returns row i times x, summed in column order. A row's columns are
// one contiguous run except across a periodic seam, and the run is summed
// without the index gather.
func rowDot(rowPtr, colIdx []int, val []float64, i int, x []float64) float64 {
	lo, hi := rowPtr[i], rowPtr[i+1]
	vals, cols := val[lo:hi], colIdx[lo:hi]
	var s float64
	if c := cols[0]; cols[len(cols)-1]-c == len(cols)-1 {
		xs := x[c : c+len(vals)]
		for q, v := range vals {
			s += float64(v * xs[q])
		}
		return s
	}
	for q, v := range vals {
		s += float64(v * x[cols[q]])
	}
	return s
}

// Sweep adds scale·vals[p]·src[base+cols[p]·stride:][:len(out)] to out for
// every p, two columns per pass over out:
//
//	out[q] += scale·vals[p]·x_p[q] + scale·vals[p+1]·x_p+1[q]
//
// and a last odd column as an Axpy. out must not alias src.
func Sweep(out []float64, scale float64, vals []float64, cols []int, src []float64, base, stride int) {
	if useAVX2 && sweepAVX2(out, scale, vals, cols, src, base, stride) {
		return
	}
	sweepGo(out, scale, vals, cols, src, base, stride)
}

// sweepGo is Sweep's Go loop; on arguments the AVX2 kernel refuses (an index
// out of range) it panics where the loop reaches the bad index.
func sweepGo(out []float64, scale float64, vals []float64, cols []int, src []float64, base, stride int) {
	n := len(out)
	p := 0
	for ; p+1 < len(vals); p += 2 {
		c0, c1 := scale*vals[p], scale*vals[p+1]
		x0 := src[base+cols[p]*stride:][:n]
		x1 := src[base+cols[p+1]*stride:][:n]
		for q := range out {
			out[q] += float64(c0*x0[q]) + float64(c1*x1[q])
		}
	}
	if p < len(vals) {
		axpyGo(scale*vals[p], src[base+cols[p]*stride:][:n], out)
	}
}

// SweepRows is Sweep for every row i of the CSR matrix (rowPtr, colIdx, val)
// in one call, i in [0, len(rowPtr)-1): row i adds into out[i*n:][:n], and
// its column c reads src[c*n:][:n], so that
//
//	SweepRows(out, scale, rowPtr, colIdx, val, src, n)
//
// gives the same bits as, for each row i,
//
//	Sweep(out[i*n:(i+1)*n], scale, val[lo:hi], colIdx[lo:hi], src, 0, n)
//
// with lo, hi = rowPtr[i], rowPtr[i+1]. rowPtr's entries index colIdx and
// val directly, so rowPtr[k:k+2] sweeps row k alone into out[:n]. out must
// not alias src.
func SweepRows(out []float64, scale float64, rowPtr, colIdx []int, val, src []float64, n int) {
	i := 0
	if useAVX2 && n > 0 && len(src) >= n && len(rowPtr) > 1 {
		rows := min(len(rowPtr)-1, len(out)/n)
		i = sweepRowsAVX2(out, scale, rowPtr[:rows+1], colIdx, val, src, n, (len(src)-n)/n)
	}
	sweepRowsGo(out, scale, rowPtr, colIdx, val, src, n, i)
}

// sweepRowsGo is SweepRows' Go loop from row first on; it panics where it
// reaches an index out of range.
func sweepRowsGo(out []float64, scale float64, rowPtr, colIdx []int, val, src []float64, n, first int) {
	out, src = out[:len(out):len(out)], src[:len(src):len(src)] // no line past len
	for i := first; i < len(rowPtr)-1; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		sweepGo(out[i*n:(i+1)*n], scale, val[lo:hi], colIdx[lo:hi], src, 0, n)
	}
}
