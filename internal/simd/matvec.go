package simd

// Dense row-major matrix kernels for the spectral-element line applies. The
// fast-diagonalization solve's x-line contractions are many small y = S x
// products; MatVec unrolls 4-way ACROSS rows (independent outputs; a
// remainder of 3 or 2 rows is one narrower block) while keeping each row's
// accumulation strictly sequential in column order. That makes it
// bit-identical to the naive
//
//	for r { s := 0; for c { s += a[r*cols+c] * x[c] }; y[r] = s }
//
// loop it replaces: the same multiplications in the same order feed each
// output, only instruction-level parallelism between rows changes.
// TestMatVecBitIdentical pins this equivalence exactly (not to a tolerance).

// MatVec computes y[r] = Σ_c a[r*cols+c] * x[c] for r in [0, rows).
func MatVec(y, a, x []float64, rows, cols int) {
	if len(y) < rows || len(x) < cols || len(a) < rows*cols {
		panic("simd: MatVec dimension mismatch")
	}
	x = x[:cols]
	r := 0
	for ; r+4 <= rows; r += 4 {
		a0 := a[r*cols : r*cols+cols]
		a1 := a[(r+1)*cols : (r+1)*cols+cols]
		a2 := a[(r+2)*cols : (r+2)*cols+cols]
		a3 := a[(r+3)*cols : (r+3)*cols+cols]
		var s0, s1, s2, s3 float64
		for c := 0; c < cols; c++ {
			xc := x[c]
			s0 += a0[c] * xc
			s1 += a1[c] * xc
			s2 += a2[c] * xc
			s3 += a3[c] * xc
		}
		y[r] = s0
		y[r+1] = s1
		y[r+2] = s2
		y[r+3] = s3
	}
	// A 3- or 2-row remainder (rows 4–6 at order 6) is one block too, so its
	// sums interleave instead of running as separate dependent add chains.
	switch rows - r {
	case 3:
		a0 := a[r*cols : r*cols+cols]
		a1 := a[(r+1)*cols : (r+1)*cols+cols]
		a2 := a[(r+2)*cols : (r+2)*cols+cols]
		var s0, s1, s2 float64
		for c := 0; c < cols; c++ {
			xc := x[c]
			s0 += a0[c] * xc
			s1 += a1[c] * xc
			s2 += a2[c] * xc
		}
		y[r] = s0
		y[r+1] = s1
		y[r+2] = s2
	case 2:
		a0 := a[r*cols : r*cols+cols]
		a1 := a[(r+1)*cols : (r+1)*cols+cols]
		var s0, s1 float64
		for c := 0; c < cols; c++ {
			xc := x[c]
			s0 += a0[c] * xc
			s1 += a1[c] * xc
		}
		y[r] = s0
		y[r+1] = s1
	case 1:
		ar := a[r*cols : r*cols+cols]
		var s float64
		for c := 0; c < cols; c++ {
			s += ar[c] * x[c]
		}
		y[r] = s
	}
}

// AddTo computes y[i] += x[i].
func AddTo(y, x []float64) {
	if len(x) != len(y) {
		panic("simd: AddTo length mismatch")
	}
	n := len(y)
	x = x[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] += x[i]
		y[i+1] += x[i+1]
		y[i+2] += x[i+2]
		y[i+3] += x[i+3]
	}
	for ; i < n; i++ {
		y[i] += x[i]
	}
}

// Xpay computes y[i] = x[i] + alpha*y[i] (the CG direction update
// p = z + beta*p), preserving the reference operand order exactly.
func Xpay(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("simd: Xpay length mismatch")
	}
	n := len(y)
	x = x[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] = x[i] + alpha*y[i]
		y[i+1] = x[i+1] + alpha*y[i+1]
		y[i+2] = x[i+2] + alpha*y[i+2]
		y[i+3] = x[i+3] + alpha*y[i+3]
	}
	for ; i < n; i++ {
		y[i] = x[i] + alpha*y[i]
	}
}
