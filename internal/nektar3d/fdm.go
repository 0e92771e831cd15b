package nektar3d

import (
	"fmt"

	"nektarg/internal/sem"
	"nektarg/internal/simd"
)

// fdmPrec is the fast-diagonalization solve of the Grid operators, CG's
// initial iterate and its preconditioner. On a uniform box of GLL elements
// the mass matrix is diagonal and separable, M = Mx⊗My⊗Mz, and
// K = Kx⊗My⊗Mz + Mx⊗Ky⊗Mz + Mx⊗My⊗Kz in the same 1D factors
// (sem.Mesh1D.Factors) that ApplyStiffness applies, so in the 1D generalized
// eigenbases S_d (K_d S_d = M_d S_d Λ_d, S_dᵀ M_d S_d = I)
//
//	(λM + K)⁻¹ = (Sx⊗Sy⊗Sz) diag(1/(λ + Λx_i + Λy_j + Λz_k)) (Sx⊗Sy⊗Sz)ᵀ
//
// exactly: three line contractions in, one scale, three out. CG stays the
// solve path: the Grid solves hand it this solve of their right-hand side as
// the initial iterate, so it computes the true residual, finds it at
// round-off and returns without iterating; where it does not, it iterates
// under this preconditioner. The all-zero mode of a pure-Neumann problem
// (λ = 0, a constant on every axis) is pseudo-inverted to 0; with a Dirichlet
// mask the axes' end nodes carry no modes and the masked rows are the
// identity, as in helmholtzOp.
type fdmPrec struct {
	ax     [3]*sem.Modes1D // x, y, z
	lambda float64         // Helmholtz shift, set per solve
	mask   []bool          // Dirichlet nodes; nil for natural boundaries
	s, t   []float64       // scratch pair, shared by the arena's two instances
}

// newFDM builds the grid's natural-boundary and Dirichlet preconditioners
// over one scratch pair. A periodic axis has no ends, so both use its one
// decomposition.
func newFDM(g *Grid, mask []bool) (nat, dir *fdmPrec) {
	n := g.NumNodes()
	nat = &fdmPrec{s: make([]float64, n), t: make([]float64, n)}
	dir = &fdmPrec{mask: mask, s: nat.s, t: nat.t}
	for d, a := range g.ax {
		// The 1D pencils are symmetric by construction, so a failed
		// decomposition is a bug, not an input condition.
		modes := func(dirichlet bool) *sem.Modes1D {
			md, err := a.mesh.Modes(a.per, dirichlet)
			if err != nil {
				panic(fmt.Sprintf("nektar3d: fast diagonalization, axis %d: %v", d, err))
			}
			return md
		}
		nat.ax[d] = modes(false)
		dir.ax[d] = nat.ax[d]
		if !a.per {
			dir.ax[d] = modes(true)
		}
	}
	return nat, dir
}

// Precondition implements linalg.Preconditioner; z and r must not alias.
func (p *fdmPrec) Precondition(z, r []float64) {
	x, y, zz := p.ax[0], p.ax[1], p.ax[2]
	nx, ny, nz := x.Nodes, y.Nodes, zz.Nodes
	mx, my, mz := x.Modes, y.Modes, zz.Modes
	s, t := p.s, p.t

	contractAxis(s, r, x.ST, mx, nx, 1, ny*nz)
	contractAxis(t, s, y.ST, my, ny, mx, nz)
	contractAxis(s, t, zz.ST, mz, nz, mx*my, 1)
	for k := 0; k < mz; k++ {
		for j := 0; j < my; j++ {
			lyz := p.lambda + y.Lambda[j] + zz.Lambda[k]
			row := s[mx*(j+my*k):][:mx]
			for i, lx := range x.Lambda {
				if d := lx + lyz; d != 0 {
					row[i] /= d
				} else {
					row[i] = 0
				}
			}
		}
	}
	contractAxis(t, s, zz.S, nz, mz, mx*my, 1)
	contractAxis(s, t, y.S, ny, my, mx, nz)
	contractAxis(z, s, x.S, nx, mx, 1, ny*nz)
	for i, m := range p.mask {
		if m {
			z[i] = r[i]
		}
	}
}

// contractAxis applies the rows×cols row-major matrix a along the middle
// axis of src viewed as [outer][cols][inner], writing dst as
// [outer][rows][inner]: x-lines (inner 1) are contiguous matrix-vector
// products, y and z are axpy sweeps over contiguous rows and planes.
func contractAxis(dst, src, a []float64, rows, cols, inner, outer int) {
	if inner == 1 {
		for o := 0; o < outer; o++ {
			simd.MatVec(dst[o*rows:(o+1)*rows], a, src[o*cols:(o+1)*cols], rows, cols)
		}
		return
	}
	for o := 0; o < outer; o++ {
		so := src[o*cols*inner : (o+1)*cols*inner]
		do := dst[o*rows*inner : (o+1)*rows*inner]
		clear(do)
		for r := 0; r < rows; r++ {
			dr := do[r*inner : (r+1)*inner]
			for c, arc := range a[r*cols : (r+1)*cols] {
				simd.Axpy(arc, so[c*inner:(c+1)*inner], dr)
			}
		}
	}
}
