package nektar3d

// Naive element-by-element reference implementations of the tensor-product
// operators: gather each element's values, apply the local operator, scatter
// back. The parity suite holds the Kronecker-product applies to them within
// round-off, so they are the oracle of record. They allocate freely.

// forEachElement visits the elements in their fixed (x fastest) order.
func (g *Grid) forEachElement(fn func(ex, ey, ez int)) {
	for ez := 0; ez < g.Nez; ez++ {
		for ey := 0; ey < g.Ney; ey++ {
			for ex := 0; ex < g.Nex; ex++ {
				fn(ex, ey, ez)
			}
		}
	}
}

// applyStiffnessRef computes y += K x element by element with the
// straightforward scalar loops.
func (g *Grid) applyStiffnessRef(y, x []float64) {
	p := g.P
	nq := p + 1
	w := g.Basis.Weights
	d := g.Basis.D
	cx := g.Jy * g.Jz / g.Jx
	cy := g.Jx * g.Jz / g.Jy
	cz := g.Jx * g.Jy / g.Jz

	loc := make([]float64, nq*nq*nq)
	out := make([]float64, nq*nq*nq)
	tmp := make([]float64, nq)
	lid := func(i, j, k int) int { return i + nq*(j+nq*k) }

	g.forEachElement(func(ex, ey, ez int) {
		for k := 0; k < nq; k++ {
			for j := 0; j < nq; j++ {
				for i := 0; i < nq; i++ {
					loc[lid(i, j, k)] = x[g.gid(ex, ey, ez, i, j, k)]
					out[lid(i, j, k)] = 0
				}
			}
		}
		// X-direction lines.
		for k := 0; k < nq; k++ {
			for j := 0; j < nq; j++ {
				for q := 0; q < nq; q++ {
					var s float64
					for i := 0; i < nq; i++ {
						s += d[q][i] * loc[lid(i, j, k)]
					}
					tmp[q] = s * w[q] * w[j] * w[k] * cx
				}
				for i := 0; i < nq; i++ {
					var s float64
					for q := 0; q < nq; q++ {
						s += d[q][i] * tmp[q]
					}
					out[lid(i, j, k)] += s
				}
			}
		}
		// Y-direction lines.
		for k := 0; k < nq; k++ {
			for i := 0; i < nq; i++ {
				for q := 0; q < nq; q++ {
					var s float64
					for j := 0; j < nq; j++ {
						s += d[q][j] * loc[lid(i, j, k)]
					}
					tmp[q] = s * w[i] * w[q] * w[k] * cy
				}
				for j := 0; j < nq; j++ {
					var s float64
					for q := 0; q < nq; q++ {
						s += d[q][j] * tmp[q]
					}
					out[lid(i, j, k)] += s
				}
			}
		}
		// Z-direction lines.
		for j := 0; j < nq; j++ {
			for i := 0; i < nq; i++ {
				for q := 0; q < nq; q++ {
					var s float64
					for k := 0; k < nq; k++ {
						s += d[q][k] * loc[lid(i, j, k)]
					}
					tmp[q] = s * w[i] * w[j] * w[q] * cz
				}
				for k := 0; k < nq; k++ {
					var s float64
					for q := 0; q < nq; q++ {
						s += d[q][k] * tmp[q]
					}
					out[lid(i, j, k)] += s
				}
			}
		}
		for k := 0; k < nq; k++ {
			for j := 0; j < nq; j++ {
				for i := 0; i < nq; i++ {
					y[g.gid(ex, ey, ez, i, j, k)] += out[lid(i, j, k)]
				}
			}
		}
	})
}

// gradientRef computes the collocation gradient with the scalar loops.
func (g *Grid) gradientRef(f []float64) (fx, fy, fz []float64) {
	nq := g.P + 1
	d := g.Basis.D
	fx = g.NewField()
	fy = g.NewField()
	fz = g.NewField()
	mult := g.NewField() // elements sharing each node
	loc := make([]float64, nq*nq*nq)
	lid := func(i, j, k int) int { return i + nq*(j+nq*k) }
	g.forEachElement(func(ex, ey, ez int) {
		for k := 0; k < nq; k++ {
			for j := 0; j < nq; j++ {
				for i := 0; i < nq; i++ {
					loc[lid(i, j, k)] = f[g.gid(ex, ey, ez, i, j, k)]
				}
			}
		}
		for k := 0; k < nq; k++ {
			for j := 0; j < nq; j++ {
				for i := 0; i < nq; i++ {
					var sx, sy, sz float64
					for q := 0; q < nq; q++ {
						sx += d[i][q] * loc[lid(q, j, k)]
						sy += d[j][q] * loc[lid(i, q, k)]
						sz += d[k][q] * loc[lid(i, j, q)]
					}
					n := g.gid(ex, ey, ez, i, j, k)
					fx[n] += sx / g.Jx
					fy[n] += sy / g.Jy
					fz[n] += sz / g.Jz
					mult[n]++
				}
			}
		}
	})
	for i := range fx {
		fx[i] /= mult[i]
		fy[i] /= mult[i]
		fz[i] /= mult[i]
	}
	return fx, fy, fz
}

// stiffnessDiagRef assembles the diagonal of K into diag (zeroed first).
func (g *Grid) stiffnessDiagRef(diag []float64) {
	p := g.P
	nq := p + 1
	w := g.Basis.Weights
	d := g.Basis.D
	cx := g.Jy * g.Jz / g.Jx
	cy := g.Jx * g.Jz / g.Jy
	cz := g.Jx * g.Jy / g.Jz
	for i := range diag {
		diag[i] = 0
	}
	g.forEachElement(func(ex, ey, ez int) {
		for k := 0; k < nq; k++ {
			for j := 0; j < nq; j++ {
				for i := 0; i < nq; i++ {
					var s float64
					for q := 0; q < nq; q++ {
						s += w[q] * w[j] * w[k] * cx * d[q][i] * d[q][i]
						s += w[i] * w[q] * w[k] * cy * d[q][j] * d[q][j]
						s += w[i] * w[j] * w[q] * cz * d[q][k] * d[q][k]
					}
					diag[g.gid(ex, ey, ez, i, j, k)] += s
				}
			}
		}
	})
}
