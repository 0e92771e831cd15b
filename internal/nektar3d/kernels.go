package nektar3d

import "nektarg/internal/simd"

// Element kernels for the tensor-product operators, the §3.5 treatment
// applied to the real hot path: the per-line derivative products route
// through simd.MatVec/MatVecAcc (bounds-check-hoisted, 4-way row-unrolled),
// while every floating-point accumulation keeps the reference loops' exact
// operation order — each output is a strictly sequential sum, and the
// quadrature scale keeps its left-to-right multiplication chain. The parity
// suite pins the kernels bit-identical (==, not a tolerance) to the retained
// naive references in operators_ref.go.
//
// Parallel structure (phase A / phase B): stiffElem/gradElem write ONLY into
// the element's private slice of elemOut/elemG, so any worker partition
// produces the same bits; the serial scatter in operators.go then folds
// elements into the global field in fixed element order, making the full
// apply bit-identical across worker counts — including to the serial run.

// stiffElem computes the element-local stiffness apply for element e of
// input field xg into elemOut[e*nq3 : (e+1)*nq3].
func (ar *arena) stiffElem(e int, xg, loc, line, tmp, lineOut []float64) {
	g := ar.g
	nq := ar.nq
	w := g.Basis.Weights
	cx := g.Jy * g.Jz / g.Jx
	cy := g.Jx * g.Jz / g.Jy
	cz := g.Jx * g.Jy / g.Jz

	gids := ar.gids[e*ar.nq3 : (e+1)*ar.nq3]
	out := ar.elemOut[e*ar.nq3 : (e+1)*ar.nq3]
	for l, n := range gids {
		loc[l] = xg[n]
		out[l] = 0
	}

	// X-direction lines: contiguous in loc, no gather needed.
	for k := 0; k < nq; k++ {
		for j := 0; j < nq; j++ {
			off := nq * (j + nq*k)
			in := loc[off : off+nq]
			simd.MatVec(tmp, ar.dF, in, nq, nq)
			for q := 0; q < nq; q++ {
				tmp[q] = tmp[q] * w[q] * w[j] * w[k] * cx
			}
			simd.MatVecAcc(out[off:off+nq], ar.dT, tmp, nq, nq)
		}
	}
	// Y-direction lines: stride nq, gather/scatter through line buffers.
	for k := 0; k < nq; k++ {
		for i := 0; i < nq; i++ {
			base := i + nq*nq*k
			for j := 0; j < nq; j++ {
				line[j] = loc[base+nq*j]
			}
			simd.MatVec(tmp, ar.dF, line, nq, nq)
			for q := 0; q < nq; q++ {
				tmp[q] = tmp[q] * w[i] * w[q] * w[k] * cy
			}
			simd.MatVec(lineOut, ar.dT, tmp, nq, nq)
			for j := 0; j < nq; j++ {
				out[base+nq*j] += lineOut[j]
			}
		}
	}
	// Z-direction lines: stride nq².
	for j := 0; j < nq; j++ {
		for i := 0; i < nq; i++ {
			base := i + nq*j
			for k := 0; k < nq; k++ {
				line[k] = loc[base+nq*nq*k]
			}
			simd.MatVec(tmp, ar.dF, line, nq, nq)
			for q := 0; q < nq; q++ {
				tmp[q] = tmp[q] * w[i] * w[j] * w[q] * cz
			}
			simd.MatVec(lineOut, ar.dT, tmp, nq, nq)
			for k := 0; k < nq; k++ {
				out[base+nq*nq*k] += lineOut[k]
			}
		}
	}
}

// allDirs asks gradElem for all three derivatives; 0, 1, 2 ask for d/dx,
// d/dy or d/dz alone.
const allDirs = -1

// gradElem computes the element-local collocation derivatives of field fg
// for element e into the three elemG sections (gx | gy | gz), or only the
// section of direction dir, leaving the other two stale. Values are the raw
// line derivatives; the serial scatter applies the 1/J metric and the
// multiplicity average, exactly as the reference does.
func (ar *arena) gradElem(e int, fg, loc, line, tmp []float64, dir int) {
	nq := ar.nq
	nq3 := ar.nq3
	gids := ar.gids[e*nq3 : (e+1)*nq3]
	gx := ar.elemG[e*nq3 : (e+1)*nq3]
	gy := ar.elemG[ar.nel*nq3+e*nq3:][:nq3]
	gz := ar.elemG[2*ar.nel*nq3+e*nq3:][:nq3]
	for l, n := range gids {
		loc[l] = fg[n]
	}
	// d/dx: rows d[i][q] times the contiguous x-line.
	if dir == allDirs || dir == 0 {
		for k := 0; k < nq; k++ {
			for j := 0; j < nq; j++ {
				off := nq * (j + nq*k)
				simd.MatVec(gx[off:off+nq], ar.dF, loc[off:off+nq], nq, nq)
			}
		}
	}
	// d/dy: gather the j-line (stride nq).
	if dir == allDirs || dir == 1 {
		for k := 0; k < nq; k++ {
			for i := 0; i < nq; i++ {
				base := i + nq*nq*k
				for j := 0; j < nq; j++ {
					line[j] = loc[base+nq*j]
				}
				simd.MatVec(tmp, ar.dF, line, nq, nq)
				for j := 0; j < nq; j++ {
					gy[base+nq*j] = tmp[j]
				}
			}
		}
	}
	// d/dz: gather the k-line (stride nq²).
	if dir == allDirs || dir == 2 {
		for j := 0; j < nq; j++ {
			for i := 0; i < nq; i++ {
				base := i + nq*j
				for k := 0; k < nq; k++ {
					line[k] = loc[base+nq*nq*k]
				}
				simd.MatVec(tmp, ar.dF, line, nq, nq)
				for k := 0; k < nq; k++ {
					gz[base+nq*nq*k] = tmp[k]
				}
			}
		}
	}
}

// runStiffElems evaluates phase A of the stiffness apply for input x across
// the worker pool (serial when one worker), leaving per-element results in
// elemOut.
func (ar *arena) runStiffElems(x []float64) {
	ar.ensureWorkers(ar.g.workers())
	ar.curX = x
	ar.pool.Run(ar.nw, ar.stiffFn)
	ar.curX = nil
}

// runGradElems evaluates phase A of the gradient for input f, leaving the
// per-element derivatives of direction dir (allDirs for all three) in elemG.
func (ar *arena) runGradElems(f []float64, dir int) {
	ar.ensureWorkers(ar.g.workers())
	ar.curX, ar.curDir = f, dir
	ar.pool.Run(ar.nw, ar.gradFn)
	ar.curX = nil
}
