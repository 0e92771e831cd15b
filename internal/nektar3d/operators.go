package nektar3d

import (
	"errors"
	"fmt"
	"math"

	"nektarg/internal/linalg"
	"nektarg/internal/simd"
)

// ApplyStiffness computes y += K x where K is the assembled C0 stiffness
// matrix ∫ ∇φ·∇ψ (the SPD discrete negative Laplacian). On the grid's box of
// GLL elements K = Kx⊗My⊗Mz + Mx⊗Ky⊗Mz + Mx⊗My⊗Kz exactly, in the
// assembled, periodic-wrapped 1D factors the fast-diagonalization solve
// inverts, so the apply is one band sum along each contiguous x-line plus
// axpy sweeps over x-rows of Mx ⊙ x for y and z. It agrees with the
// element-by-element assembly to round-off, is bit-identical for every
// worker count, and the steady-state call allocates nothing. y and x must
// not alias.
func (g *Grid) ApplyStiffness(y, x []float64) {
	ar := g.arena()
	mx := g.ax[0].m
	for r := 0; r < len(x); r += g.Nx {
		for i, m := range mx {
			ar.mx[r+i] = m * x[r+i]
		}
	}
	ar.tiled(jobStiff, x, y)
}

// stiffPlane adds plane k of K x into y (ApplyStiffness, with ar.mx filled).
func (ar *arena) stiffPlane(y, x []float64, k int) {
	g := ar.g
	nx, ny := g.Nx, g.Ny
	kx, ky, kz := g.ax[0].k, g.ax[1].k, g.ax[2].k
	my, mz := g.ax[1].m, g.ax[2].m[k]
	for j := 0; j < ny; j++ {
		r := nx * (j + ny*k)
		out, xr := y[r:r+nx], x[r:r+nx]
		c := my[j] * mz
		for i := range out {
			out[i] += c * rowDot(kx, i, xr)
		}
		sweep(out, mz, ky, j, ar.mx, nx*ny*k, nx)
		sweep(out, my[j], kz, k, ar.mx, nx*j, nx*ny)
	}
}

// rowDot returns row i of a times the line x, summed in column order. A
// row's columns are one contiguous run except across a periodic seam, and
// the run is summed without the index gather.
func rowDot(a *linalg.CSR, i int, x []float64) float64 {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	vals, cols := a.Val[lo:hi], a.ColIdx[lo:hi]
	var s float64
	if c := cols[0]; cols[len(cols)-1]-c == len(cols)-1 {
		xs := x[c : c+len(vals)]
		for q, v := range vals {
			s += v * xs[q]
		}
		return s
	}
	for q, v := range vals {
		s += v * x[cols[q]]
	}
	return s
}

// sweep adds scale·a[i,c]·src[base+c·stride:][:len(out)] to out over the
// columns c of row i of a, two rows of src per pass over out.
func sweep(out []float64, scale float64, a *linalg.CSR, i int, src []float64, base, stride int) {
	n := len(out)
	p, hi := a.RowPtr[i], a.RowPtr[i+1]
	for ; p+1 < hi; p += 2 {
		c0, c1 := scale*a.Val[p], scale*a.Val[p+1]
		x0 := src[base+a.ColIdx[p]*stride:][:n]
		x1 := src[base+a.ColIdx[p+1]*stride:][:n]
		for q := range out {
			out[q] += c0*x0[q] + c1*x1[q]
		}
	}
	if p < hi {
		simd.Axpy(scale*a.Val[p], src[base+a.ColIdx[p]*stride:][:n], out)
	}
}

// derivPlane writes plane k of the collocation derivative of f along axis
// dir into dst: the axis's averaged 1D derivative applied to every line.
func (ar *arena) derivPlane(dst, f []float64, dir, k int) {
	g := ar.g
	nx, ny := g.Nx, g.Ny
	d := g.ax[dir].d
	for j := 0; j < ny; j++ {
		r := nx * (j + ny*k)
		out := dst[r : r+nx]
		switch dir {
		case 0:
			fr := f[r : r+nx]
			for i := range out {
				out[i] = rowDot(d, i, fr)
			}
		case 1:
			clear(out)
			sweep(out, 1, d, j, f, nx*ny*k, nx)
		case 2:
			clear(out)
			sweep(out, 1, d, k, f, nx*j, nx*ny)
		}
	}
}

// helmholtzOp is the masked operator y = (lambda*M + K) x with identity rows
// on Dirichlet nodes (x is kept zero there during CG). Pointer methods so a
// prebuilt instance can live in an interface field with lambda mutated per
// solve, avoiding a per-solve allocation.
type helmholtzOp struct {
	g      *Grid
	lambda float64
	mask   []bool
}

func (o *helmholtzOp) Dim() int { return o.g.NumNodes() }

func (o *helmholtzOp) Apply(y, x []float64) {
	for i := range y {
		y[i] = 0
	}
	o.g.ApplyStiffness(y, x)
	if o.lambda != 0 {
		for i := range y {
			y[i] += o.lambda * o.g.massDiag[i] * x[i]
		}
	}
	if o.mask != nil {
		for i, m := range o.mask {
			if m {
				y[i] = x[i]
			}
		}
	}
}

// ErrCGStalled is wrapped by the Grid solves when CG exhausts its iteration
// budget above tolerance (linalg.ErrCGBreakdown covers a non-SPD operator).
var ErrCGStalled = errors.New("CG stalled")

// meanFreePrec wraps a preconditioner with a Euclidean mean projection so CG
// iterates stay orthogonal to the constant null space of the pure-Neumann
// Poisson operator. (The operator itself needs no projection: K annihilates
// constants and 1ᵀKx = 0 to round-off — at most 1.1e-16 and 7.6e-15 of
// max|Kx| on the parity grids, TestStiffnessNullSpaceRoundOff — so the
// Krylov space stays mean-free as long as the preconditioner does not
// reintroduce a mean component.)
type meanFreePrec struct {
	inner linalg.Preconditioner
}

func (p meanFreePrec) Precondition(z, r []float64) {
	p.inner.Precondition(z, r)
	var mean float64
	for _, v := range z {
		mean += v
	}
	mean /= float64(len(z))
	for i := range z {
		z[i] -= mean
	}
}

// removeMean subtracts the mass-weighted mean from a field.
func (g *Grid) removeMean(f []float64) {
	m := g.Mean(f)
	for i := range f {
		f[i] -= m
	}
}

// SolveHelmholtzDirichletIn solves (lambda*M + K) u = M f with u = gBC on
// every Dirichlet (non-periodic boundary) node. u is output only: it receives
// the solution on success and is left untouched on error; what it held on
// entry is never read. CG starts from the fast-diagonalization solve of the
// interior right-hand side, which is exact up to round-off, so its first act
// is the true residual of that iterate against tol and it normally returns
// with 0 iterations; above tol it iterates, preconditioned by the same
// solve. All workspace comes from the grid arena, so steady-state solves
// allocate nothing.
func (g *Grid) SolveHelmholtzDirichletIn(u []float64, lambda float64, f, gBC []float64, tol float64, maxIter int) (linalg.SolveStats, error) {
	ar := g.arena()
	mask := ar.mask

	// Lifting: u = u0 + ug, with ug = gBC on the mask and 0 inside.
	ug := ar.ug
	for i := range ug {
		ug[i] = 0
	}
	for i, m := range mask {
		if m {
			ug[i] = gBC[i]
		}
	}
	// b = M f - (lambda M + K) ug, restricted to interior.
	b := ar.b
	ar.op.lambda = lambda
	ar.op.Apply(b, ug)
	for i := range b {
		b[i] = g.massDiag[i]*f[i] - b[i]
	}
	for i, m := range mask {
		if m {
			b[i] = 0
		}
	}

	x := ar.x
	ar.mop.lambda = lambda
	ar.dir.lambda = lambda
	ar.dir.Precondition(x, b)
	res, err := linalg.CGWith(&ar.cgws, ar.mopIface, x, b, ar.dir, tol, maxIter)
	if err != nil {
		return res, err
	}
	if !res.Converged {
		return res, fmt.Errorf("nektar3d: Helmholtz %w at %g after %d iterations", ErrCGStalled, res.Residual, res.Iterations)
	}
	for i := range x {
		u[i] = x[i] + ug[i]
	}
	return res, nil
}

// SolvePoissonNeumannIn solves K p = -M s (that is, ∇²p = s weakly) with
// homogeneous Neumann boundaries on all non-periodic faces. p is output
// only: it receives the mean-free solution on success and is left untouched
// on error. The constant null space is removed from both right-hand side and
// solution, and CG starts from the mean-free fast-diagonalization solve of
// the right-hand side, as in SolveHelmholtzDirichletIn. Arena-backed:
// steady-state solves allocate nothing.
func (g *Grid) SolvePoissonNeumannIn(p, s []float64, tol float64, maxIter int) (linalg.SolveStats, error) {
	ar := g.arena()
	n := g.NumNodes()
	b := ar.b
	for i := range b {
		b[i] = -g.massDiag[i] * s[i]
	}
	// Orthogonalize the RHS against constants (compatibility condition).
	var mean float64
	for i := range b {
		mean += b[i]
	}
	for i := range b {
		b[i] -= mean / float64(n)
	}

	x := ar.x
	ar.op.lambda = 0
	ar.nat.lambda = 0
	ar.mfIface.Precondition(x, b)
	res, err := linalg.CGWith(&ar.cgws, ar.opIface, x, b, ar.mfIface, tol, maxIter)
	if err != nil {
		return res, err
	}
	if !res.Converged && res.Residual > math.Sqrt(tol) {
		return res, fmt.Errorf("nektar3d: Poisson %w at %g after %d iterations", ErrCGStalled, res.Residual, res.Iterations)
	}
	g.removeMean(x)
	copy(p, x)
	return res, nil
}

// GradientInto computes the collocation gradient of f into fx, fy, fz,
// averaging the (discontinuous) element derivatives at shared nodes: one
// averaged 1D derivative matrix per axis. Arena-backed, bit-identical for
// every worker count; the outputs must not alias f.
func (g *Grid) GradientInto(fx, fy, fz, f []float64) {
	g.arena().tiled(jobGrad, f, fx, fy, fz)
}

// DivergenceInto computes ∇·(u,v,w) into div via collocation gradients,
// reusing the arena's directional-derivative fields. Matches the historical
// ux+vy+wz evaluation bit for bit.
func (g *Grid) DivergenceInto(div, u, v, w []float64) {
	ar := g.arena()
	g.derivInto(ar.dxF, u, 0)
	g.derivInto(ar.dyF, v, 1)
	g.derivInto(ar.dzF, w, 2)
	for i := range div {
		div[i] = ar.dxF[i] + ar.dyF[i] + ar.dzF[i]
	}
}

// derivInto computes the single collocation derivative d f/d{x,y,z} (dir
// 0/1/2) into dst, the same bits as the matching GradientInto component.
func (g *Grid) derivInto(dst, f []float64, dir int) {
	g.arena().tiled(job(dir), f, dst)
}
