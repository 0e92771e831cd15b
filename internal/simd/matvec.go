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
// MatVecs runs it over every line of a block, through the AVX2 kernel where
// there is one.

// MatVecs computes y[o*ystride+r] = Σ_c a[r*cols+c] * x[o*xstride+c] for
// every line o in [0, lines): MatVec on each line of x in turn, line o's
// cols inputs at x[o*xstride:] and its rows outputs at y[o*ystride:]. at must
// be a's column-major form, at[c*rows+r] = a[r*cols+c], which is how the
// AVX2 kernel reads a: column c of four rows is one vector, and each lane
// sums its row in column order, as MatVec does (sem.Modes1D's S and ST are
// each other's column-major forms). Packed lines have ystride = rows and
// xstride = cols; a wider stride applies a to a band of each line. The
// output lines must not overlap (ystride >= rows), and y must not alias x.
func MatVecs(y, a, at, x []float64, rows, cols, lines, ystride, xstride int) {
	if rows < 0 || cols < 0 || lines < 0 || ystride < rows || xstride < 0 ||
		len(a) < rows*cols || len(at) < rows*cols ||
		lines > 0 && (len(y) < (lines-1)*ystride+rows || len(x) < (lines-1)*xstride+cols) {
		panic("simd: MatVecs dimension mismatch")
	}
	if useAVX2 && rows > 0 && cols > 0 {
		matVecsAVX2(y, at, x, rows, cols, lines, ystride, xstride)
		return
	}
	for o := 0; o < lines; o++ {
		MatVec(y[o*ystride:o*ystride+rows], a, x[o*xstride:o*xstride+cols], rows, cols)
	}
}

// Contract applies the rows×cols row-major matrix a along the middle axis of
// src viewed as [outer][cols][inner], writing dst as [outer][rows][inner]:
//
//	dst[o][r][i] = Σ_c a[r*cols+c] * src[o][c][i]
//
// each sum started at +0 and taken in column order. These are the y and z
// contractions of the fast-diagonalization solve, whose lines are not
// contiguous (the x-lines are MatVecs'). On amd64 with AVX2 contractAVX2
// holds a block of output rows × inner lanes in registers across the
// columns; contractGo, one Axpy per matrix entry, is the portable loop and
// the oracle it must equal bit for bit. dst must not alias src.
func Contract(dst, src, a []float64, rows, cols, inner, outer int) {
	if rows < 0 || cols < 0 || inner < 0 || outer < 0 || len(a) < rows*cols ||
		len(src) < outer*cols*inner || len(dst) < outer*rows*inner {
		panic("simd: Contract dimension mismatch")
	}
	if useAVX2 && rows > 0 && cols > 0 && inner > 0 && outer > 0 {
		contractAVX2(dst, src, a, rows, cols, inner, outer)
		return
	}
	contractGo(dst, src, a, rows, cols, inner, outer)
}

// contractGo is Contract's Go loop: every output row is cleared, then gains
// a[r,c] times source row c for each column c in turn.
func contractGo(dst, src, a []float64, rows, cols, inner, outer int) {
	for o := 0; o < outer; o++ {
		so := src[o*cols*inner : (o+1)*cols*inner]
		do := dst[o*rows*inner : (o+1)*rows*inner]
		clear(do)
		for r := 0; r < rows; r++ {
			dr := do[r*inner : (r+1)*inner]
			for c, arc := range a[r*cols : (r+1)*cols] {
				axpyGo(arc, so[c*inner:(c+1)*inner], dr)
			}
		}
	}
}

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
			s0 += float64(a0[c] * xc)
			s1 += float64(a1[c] * xc)
			s2 += float64(a2[c] * xc)
			s3 += float64(a3[c] * xc)
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
			s0 += float64(a0[c] * xc)
			s1 += float64(a1[c] * xc)
			s2 += float64(a2[c] * xc)
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
			s0 += float64(a0[c] * xc)
			s1 += float64(a1[c] * xc)
		}
		y[r] = s0
		y[r+1] = s1
	case 1:
		ar := a[r*cols : r*cols+cols]
		var s float64
		for c := 0; c < cols; c++ {
			s += float64(ar[c] * x[c])
		}
		y[r] = s
	}
}

// Xpay computes y[i] = x[i] + float64(alpha*y[i]) (the CG direction update
// p = z + beta*p), preserving the reference operand order exactly.
func Xpay(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("simd: Xpay length mismatch")
	}
	n := len(y)
	x = x[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] = x[i] + float64(alpha*y[i])
		y[i+1] = x[i+1] + float64(alpha*y[i+1])
		y[i+2] = x[i+2] + float64(alpha*y[i+2])
		y[i+3] = x[i+3] + float64(alpha*y[i+3])
	}
	for ; i < n; i++ {
		y[i] = x[i] + float64(alpha*y[i])
	}
}
