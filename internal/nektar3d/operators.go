package nektar3d

import (
	"errors"
	"fmt"
	"math"

	"nektarg/internal/linalg"
)

// ApplyStiffness computes y += K x where K is the assembled C0 stiffness
// matrix ∫ ∇φ·∇ψ (the SPD discrete negative Laplacian), via element-local
// tensor-product applies: for each direction, y_loc += D^T (c ∘ (D x_loc))
// with c the quadrature/metric coefficient.
//
// Phase A evaluates the element-local applies through the tuned line kernels
// (kernels.go), tiled over the arena's worker pool into disjoint per-element
// output ranges; phase B folds them into y serially in fixed element order.
// The result is bit-identical to applyStiffnessRef for every worker count
// (pinned by the parity suite), and the steady-state call allocates nothing.
func (g *Grid) ApplyStiffness(y, x []float64) {
	ar := g.arena()
	ar.runStiffElems(x)
	nq3 := ar.nq3
	for e := 0; e < ar.nel; e++ {
		out := ar.elemOut[e*nq3 : (e+1)*nq3]
		gids := ar.gids[e*nq3 : (e+1)*nq3]
		for l, n := range gids {
			y[n] += out[l]
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
// constants and 1ᵀKx = 0 exactly, so the Krylov space stays mean-free as
// long as the preconditioner does not reintroduce a mean component.)
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
// averaging the (discontinuous) element derivatives at shared nodes.
// Arena-backed and bit-identical to gradientRef for every worker count.
func (g *Grid) GradientInto(fx, fy, fz, f []float64) {
	ar := g.arena()
	ar.runGradElems(f, allDirs)
	for i := range fx {
		fx[i], fy[i], fz[i] = 0, 0, 0
	}
	nq3 := ar.nq3
	for e := 0; e < ar.nel; e++ {
		gx := ar.elemG[e*nq3 : (e+1)*nq3]
		gy := ar.elemG[ar.nel*nq3+e*nq3:][:nq3]
		gz := ar.elemG[2*ar.nel*nq3+e*nq3:][:nq3]
		gids := ar.gids[e*nq3 : (e+1)*nq3]
		for l, n := range gids {
			fx[n] += gx[l] / g.Jx
			fy[n] += gy[l] / g.Jy
			fz[n] += gz[l] / g.Jz
		}
	}
	for i := range fx {
		fx[i] /= g.mult[i]
		fy[i] /= g.mult[i]
		fz[i] /= g.mult[i]
	}
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
// 0/1/2) into dst, with the same scatter/average as the matching GradientInto
// component.
func (g *Grid) derivInto(dst, f []float64, dir int) {
	ar := g.arena()
	ar.runGradElems(f, dir)
	for i := range dst {
		dst[i] = 0
	}
	nq3 := ar.nq3
	jac := [3]float64{g.Jx, g.Jy, g.Jz}[dir]
	for e := 0; e < ar.nel; e++ {
		gd := ar.elemG[dir*ar.nel*nq3+e*nq3:][:nq3]
		gids := ar.gids[e*nq3 : (e+1)*nq3]
		for l, n := range gids {
			dst[n] += gd[l] / jac
		}
	}
	for i := range dst {
		dst[i] /= g.mult[i]
	}
}
