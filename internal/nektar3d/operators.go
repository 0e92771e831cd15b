package nektar3d

import (
	"errors"
	"fmt"
	"math"
	"slices"

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
		simd.BandMulAdd(out, my[j]*mz, kx.RowPtr, kx.ColIdx, kx.Val, xr)
		sweep(out, mz, ky, j, ar.mx, nx*ny*k, nx)
		sweep(out, my[j], kz, k, ar.mx, nx*j, nx*ny)
	}
}

// sweep adds scale·a[i,c]·src[base+c·stride:][:len(out)] to out over the
// columns c of row i of a (simd.Sweep).
func sweep(out []float64, scale float64, a *linalg.CSR, i int, src []float64, base, stride int) {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	simd.Sweep(out, scale, a.Val[lo:hi], a.ColIdx[lo:hi], src, base, stride)
}

// derivPlane writes plane k of the collocation derivative of f along axis
// dir into dst: the axis's averaged 1D derivative applied to every line of
// the plane in one kernel call per row band along x (arena.xb), one along y
// (SweepRows over the x-lines) and one along z (Sweep over the plane). Along
// x each node's row sum runs over its band's dense block; the zeros it adds
// are ±0, which leave a sum started at +0 as it was, so on finite input
// every node gets the bits of its CSR row in column order (DESIGN.md §14).
func (ar *arena) derivPlane(dst, f []float64, dir, k int) {
	g := ar.g
	nx, n := g.Nx, g.Nx*g.Ny
	out, in := dst[n*k:n*(k+1)], f[n*k:n*(k+1)]
	d := g.ax[dir].d
	switch dir {
	case 0:
		for _, b := range ar.xb {
			simd.MatVecs(out[b.r0:], b.a, b.at, in[b.c0:], b.rows, b.cols, g.Ny, nx, nx)
		}
	case 1:
		clear(out)
		simd.SweepRows(out, 1, d.RowPtr, d.ColIdx, d.Val, in, nx)
	case 2:
		clear(out)
		sweep(out, 1, d, k, f, 0, n)
	}
}

// band is a run of rows r0..r0+rows-1 of a CSR matrix held dense over the
// columns c0..c0+cols-1 their entries span: row-major in a, column-major in
// at (simd.MatVecs reads both).
type band struct {
	r0, rows, c0, cols int
	a, at              []float64
}

// bandRows is the rows per band: the sixteen rows the AVX2 MatVecs kernel
// holds in registers, so that each band is one register block per line.
const bandRows = 16

// bands cuts the CSR matrix a into runs of bandRows rows, each dense over
// the columns its rows' entries span. A band of a derivative's rows spans
// a few elements, not the whole axis, unless a periodic seam row is in it.
func bands(a *linalg.CSR) []band {
	var bs []band
	for r0 := 0; r0 < a.Rows; r0 += bandRows {
		b := band{r0: r0, rows: min(bandRows, a.Rows-r0)}
		lo, hi := a.RowPtr[r0], a.RowPtr[r0+b.rows]
		if lo < hi {
			b.c0, b.cols = slices.Min(a.ColIdx[lo:hi]), slices.Max(a.ColIdx[lo:hi])+1
			b.cols -= b.c0
		}
		b.a = make([]float64, b.rows*b.cols)
		b.at = make([]float64, b.rows*b.cols)
		for r := 0; r < b.rows; r++ {
			for q := a.RowPtr[r0+r]; q < a.RowPtr[r0+r+1]; q++ {
				c := a.ColIdx[q] - b.c0
				b.a[r*b.cols+c] = a.Val[q]
				b.at[c*b.rows+r] = a.Val[q]
			}
		}
		bs = append(bs, b)
	}
	return bs
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
			y[i] += float64(o.lambda * o.g.massDiag[i] * x[i])
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
// budget above tolerance, and so by Solver.Run when the solves of its
// checking step, which has no budget, are above Tol (linalg.ErrCGBreakdown
// covers a non-SPD operator).
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
// every Dirichlet (non-periodic boundary) node and checks the answer. u is
// output only: it receives the solution on success and is left untouched on
// error; what it held on entry is never read. The solution is the
// fast-diagonalization solve of the lifted right-hand side (helmholtzSeed),
// exact on the grid's box up to round-off; CG starts from it, so its first
// act is the true residual against tol and it normally returns with 0
// iterations. Above tol it iterates, preconditioned by the same solve, for
// at most maxIter iterations (0: none, the residual check alone). All
// workspace comes from the grid arena, so steady-state solves allocate
// nothing.
func (g *Grid) SolveHelmholtzDirichletIn(u []float64, lambda float64, f, gBC []float64, tol float64, maxIter int) (linalg.SolveStats, error) {
	ar := g.arena()
	x, b := g.helmholtzSeed(lambda, f, gBC)
	res, err := linalg.CGWith(&ar.cgws, ar.mopIface, x, b, ar.dir, tol, maxIter)
	if err != nil {
		return res, err
	}
	if !res.Converged {
		return res, fmt.Errorf("nektar3d: Helmholtz %w at %g after %d iterations", ErrCGStalled, res.Residual, res.Iterations)
	}
	g.lift(u, x)
	return res, nil
}

// solveHelmholtzDirect is SolveHelmholtzDirichletIn without the check: u
// receives the fast-diagonalization solution, the bits the checked solve
// returns when CG has nothing to do.
func (g *Grid) solveHelmholtzDirect(u []float64, lambda float64, f, gBC []float64) {
	x, _ := g.helmholtzSeed(lambda, f, gBC)
	g.lift(u, x)
}

// helmholtzSeed poses the Helmholtz problem in the arena and solves it:
// the lifting ug = gBC on the mask and 0 inside (u = u0 + ug), the
// right-hand side b = M f - (lambda M + K) ug restricted to the interior
// (liftRHS), and x its fast-diagonalization solve. Only the mask of ug is
// written: nothing else writes ug, and newArena made its interior +0.
func (g *Grid) helmholtzSeed(lambda float64, f, gBC []float64) (x, b []float64) {
	ar := g.arena()
	ug := ar.ug
	for i, m := range ar.mask {
		if m {
			ug[i] = gBC[i]
		}
	}
	b = ar.b
	ar.liftRHS(b, f, ug)
	ar.mop.lambda = lambda
	ar.dir.lambda = lambda
	fdmSolve(ar.x, b, ar.dir)
	return ar.x, b
}

// faceCols is one axis's stiffness entries whose column is a Dirichlet face
// node (0 or n-1 of a non-periodic axis), row by row in storage order: row
// r's are [ptr[r], ptr[r+1]). Through them alone a lifting that is zero off
// the mask reaches an interior node.
type faceCols struct {
	ptr, col []int
	val      []float64
}

func newFaceCols(a *axis) faceCols {
	k := a.k
	fc := faceCols{ptr: make([]int, 1, k.Rows+1)}
	for r := 0; r < k.Rows; r++ {
		for q := k.RowPtr[r]; q < k.RowPtr[r+1]; q++ {
			if c := k.ColIdx[q]; !a.per && (c == 0 || c == k.Cols-1) {
				fc.col = append(fc.col, c)
				fc.val = append(fc.val, k.Val[q])
			}
		}
		fc.ptr = append(fc.ptr, len(fc.col))
	}
	return fc
}

// liftRHS writes b = M f - (lambda M + K) ug on the interior and 0 on the
// mask, for a lifting ug that is zero off the mask, from the face terms
// alone. Each x-row's accumulator starts at +0 and takes stiffPlane's terms
// in its order: the x band sum, then every y and every z face term. A term
// this skips is an exact ±0 there (as is lambda M ug on the interior, for a
// finite lambda M), adding ±0 leaves an accumulator that started at +0
// unchanged, and for P >= 2 no Sweep pair holds both face columns of a row,
// so b is the bits of the whole masked operator applied to ug
// (TestLiftMatchesOperator).
func (ar *arena) liftRHS(b, f, ug []float64) {
	g := ar.g
	nx, ny, nz := g.Nx, g.Ny, g.Nz
	mx, my, mz := g.ax[0].m, g.ax[1].m, g.ax[2].m
	fx, fy, fz := &ar.face[0], &ar.face[1], &ar.face[2]
	lo, hi := 0, nx
	if !g.PerX {
		lo, hi = 1, nx-1
	}
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			r := nx * (j + ny*k)
			row := b[r : r+nx]
			clear(row)
			if ar.mask[r+lo] {
				continue
			}
			acc, mf, fr := row[lo:hi], g.massDiag[r+lo:r+hi], f[r+lo:r+hi]
			c := my[j] * mz[k]
			for i := range acc {
				var s float64
				for q := fx.ptr[lo+i]; q < fx.ptr[lo+i+1]; q++ {
					s += float64(fx.val[q] * ug[r+fx.col[q]])
				}
				acc[i] += float64(c * s)
			}
			for q := fy.ptr[j]; q < fy.ptr[j+1]; q++ {
				faceTerms(acc, float64(mz[k]*fy.val[q]), mx[lo:hi], ug[nx*(fy.col[q]+ny*k)+lo:])
			}
			for q := fz.ptr[k]; q < fz.ptr[k+1]; q++ {
				faceTerms(acc, float64(my[j]*fz.val[q]), mx[lo:hi], ug[nx*(j+ny*fz.col[q])+lo:])
			}
			fr = fr[:len(acc)]
			for i, m := range mf[:len(acc)] {
				acc[i] = float64(m*fr[i]) - acc[i]
			}
		}
	}
}

// faceTerms adds c·(m ⊙ src) to acc, the Sweep term of one face column.
func faceTerms(acc []float64, c float64, m, src []float64) {
	src = src[:len(acc)]
	for i, v := range src {
		acc[i] += float64(c * float64(m[i]*v))
	}
}

// lift writes u = x + ug, the Helmholtz solution with its boundary values.
// The add covers the interior too, where ug is +0: it turns a -0 of x into
// the +0 the solution carries there.
func (g *Grid) lift(u, x []float64) {
	ug := g.ar.ug
	for i := range x {
		u[i] = x[i] + ug[i]
	}
}

// fdmSolve writes the fast-diagonalization solve p of b into x, exactly what
// CG returns from that iterate after 0 iterations: that includes CG's rule
// that a right-hand side of norm 0 (every square underflows) has the
// solution +0, where the solve would leave tiny values or signed zeros.
func fdmSolve(x, b []float64, p linalg.Preconditioner) {
	if zeroNorm(b) {
		clear(x)
		return
	}
	p.Precondition(x, b)
}

// zeroNorm reports whether CG finds ‖b‖ = 0, sqrt(Σ b[i]²) == 0: a sum of
// squares is +0 exactly when every square is (one NaN, +Inf or positive
// square keeps it off 0), so the scan stops at the first square that is
// not, normally the first interior node.
func zeroNorm(b []float64) bool {
	for _, v := range b {
		if v*v != 0 {
			return false
		}
	}
	return true
}

// SolvePoissonNeumannIn solves K p = -M s (that is, ∇²p = s weakly) with
// homogeneous Neumann boundaries on all non-periodic faces and checks the
// answer. p is output only: it receives the mean-free solution on success
// and is left untouched on error. The constant null space is removed from
// both right-hand side and solution, and the solution is the mean-free
// fast-diagonalization solve (poissonSeed), checked and if need be iterated
// on by CG as in SolveHelmholtzDirichletIn; a residual under sqrt(tol) is
// accepted when CG ran out of iterations. Arena-backed: steady-state solves
// allocate nothing.
func (g *Grid) SolvePoissonNeumannIn(p, s []float64, tol float64, maxIter int) (linalg.SolveStats, error) {
	ar := g.arena()
	x, b := g.poissonSeed(s)
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

// solvePoissonDirect is SolvePoissonNeumannIn without the check, as
// solveHelmholtzDirect is for the Helmholtz solve.
func (g *Grid) solvePoissonDirect(p, s []float64) {
	x, _ := g.poissonSeed(s)
	g.removeMean(x)
	copy(p, x)
}

// poissonSeed poses the Poisson problem in the arena and solves it: the
// right-hand side b = -M s orthogonalized against constants (the
// compatibility condition) and x its mean-free fast-diagonalization solve.
func (g *Grid) poissonSeed(s []float64) (x, b []float64) {
	ar := g.arena()
	n := g.NumNodes()
	b = ar.b
	for i := range b {
		b[i] = -g.massDiag[i] * s[i]
	}
	var mean float64
	for i := range b {
		mean += b[i]
	}
	mean /= float64(n)
	for i := range b {
		b[i] -= mean
	}
	ar.op.lambda = 0
	ar.nat.lambda = 0
	fdmSolve(ar.x, b, ar.mfIface)
	return ar.x, b
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
