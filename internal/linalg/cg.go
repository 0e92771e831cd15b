package linalg

import (
	"errors"
	"fmt"
	"math"

	"nektarg/internal/simd"
)

// Operator is any symmetric positive-definite linear operator y = A x. Both
// CSR matrices and matrix-free spectral-element Helmholtz operators satisfy
// it.
type Operator interface {
	Dim() int
	Apply(y, x []float64)
}

// CSROperator adapts a CSR matrix to the Operator interface.
type CSROperator struct{ M *CSR }

// Dim returns the operator dimension.
func (o CSROperator) Dim() int { return o.M.Rows }

// Apply computes y = M x.
func (o CSROperator) Apply(y, x []float64) { o.M.MulVec(y, x) }

// Preconditioner applies z = M^{-1} r approximately.
type Preconditioner interface {
	Precondition(z, r []float64)
}

// IdentityPrec is the trivial preconditioner z = r.
type IdentityPrec struct{}

// Precondition copies r into z.
func (IdentityPrec) Precondition(z, r []float64) { copy(z, r) }

// JacobiPrec is diagonal scaling: the preconditioner of the 1D solves, and
// the baseline nektar3d's fast diagonalization is measured against.
type JacobiPrec struct{ InvDiag []float64 }

// NewJacobiPrec builds a Jacobi preconditioner from a diagonal; zero diagonal
// entries are treated as 1 so the operator remains well defined.
func NewJacobiPrec(diag []float64) *JacobiPrec {
	inv := make([]float64, len(diag))
	for i, d := range diag {
		if d == 0 {
			inv[i] = 1
		} else {
			inv[i] = 1 / d
		}
	}
	return &JacobiPrec{InvDiag: inv}
}

// Precondition computes z[i] = r[i] / diag[i].
func (p *JacobiPrec) Precondition(z, r []float64) {
	for i := range r {
		z[i] = p.InvDiag[i] * r[i]
	}
}

// SetDiag refills the preconditioner from a new diagonal in place, growing
// the inverse-diagonal buffer only when the dimension grows, so a persistent
// JacobiPrec can be re-seeded each solve without allocating.
func (p *JacobiPrec) SetDiag(diag []float64) {
	if cap(p.InvDiag) < len(diag) {
		p.InvDiag = make([]float64, len(diag))
	}
	p.InvDiag = p.InvDiag[:len(diag)]
	for i, d := range diag {
		if d == 0 {
			p.InvDiag[i] = 1
		} else {
			p.InvDiag[i] = 1 / d
		}
	}
}

// SolveStats reports how a conjugate-gradient solve went: the per-stage
// convergence record the telemetry layer turns into gauges, the CG watchdog
// reads and the tests assert on.
type SolveStats struct {
	Iterations int
	Initial    float64 // ||b - A x0|| / ||b||, of the initial guess
	Residual   float64 // final ||b - A x|| / ||b||
	Converged  bool
}

// ErrCGBreakdown is returned when the operator is not SPD (p^T A p <= 0).
var ErrCGBreakdown = errors.New("linalg: CG breakdown: operator not positive definite")

// CGWorkspace owns the four CG work vectors so repeated solves on
// same-dimension systems allocate nothing. It is pure scratch: no state
// carries meaning across solves, and checkpoint capture must never include
// it. A workspace serves one solve at a time (not reentrant); each
// Grid/Solver arena owns its own.
type CGWorkspace struct {
	r, z, p, ap []float64
}

// ensure sizes the work vectors for an n-dimensional solve, reusing backing
// arrays whenever capacity allows.
func (ws *CGWorkspace) ensure(n int) {
	if cap(ws.r) < n {
		ws.r = make([]float64, n)
		ws.z = make([]float64, n)
		ws.p = make([]float64, n)
		ws.ap = make([]float64, n)
	}
	ws.r = ws.r[:n]
	ws.z = ws.z[:n]
	ws.p = ws.p[:n]
	ws.ap = ws.ap[:n]
}

// CG solves A x = b with preconditioned conjugate gradients, overwriting x,
// which on entry is the initial guess. (The paper predicts it from previous
// time steps. nektar3d's checked Grid solves pass the fast-diagonalization
// solve of b, exact on their uniform boxes, so CG has only the residual
// check left to do; nektar3d.Solver.Run makes that check only in the last
// step of each call, with no iterations allowed.) It stops when the relative
// residual drops below tol — tested before each preconditioning, so a guess
// that already meets tol costs one operator apply and nothing else — or
// after maxIter iterations. Work vectors are allocated fresh; hot paths use
// CGWith with a reusable workspace instead.
func CG(a Operator, x, b []float64, prec Preconditioner, tol float64, maxIter int) (SolveStats, error) {
	return CGWith(nil, a, x, b, prec, tol, maxIter)
}

// CGWith is CG with caller-owned scratch: ws provides the four work
// vectors, so a steady-state solve performs zero allocations (pinned by
// TestCGWithZeroAlloc). ws == nil allocates a throwaway workspace,
// reproducing CG exactly.
func CGWith(ws *CGWorkspace, a Operator, x, b []float64, prec Preconditioner, tol float64, maxIter int) (SolveStats, error) {
	n := a.Dim()
	if len(x) != n || len(b) != n {
		panic(fmt.Sprintf("linalg: CG dimension mismatch: dim=%d len(x)=%d len(b)=%d", n, len(x), len(b)))
	}
	if prec == nil {
		prec = IdentityPrec{}
	}
	if ws == nil {
		ws = &CGWorkspace{}
	}
	ws.ensure(n)
	r, z, p, ap := ws.r, ws.z, ws.p, ws.ap

	bnorm := math.Sqrt(simd.Dot(b, b))
	if bnorm == 0 {
		for i := range x {
			x[i] = 0
		}
		return SolveStats{Converged: true}, nil
	}

	// r = b - A x0
	a.Apply(ap, x)
	for i := range r {
		r[i] = b[i] - ap[i]
	}

	// Convergence is tested before the residual is preconditioned, so a
	// solve that returns never computes a z it would not use: Precondition
	// runs once per iteration that continues, none when x0 already meets tol.
	var res SolveStats
	var rz float64
	for k := 0; ; k++ {
		res.Residual = math.Sqrt(simd.Dot(r, r)) / bnorm
		if k == 0 {
			res.Initial = res.Residual
		}
		if k >= maxIter || res.Residual < tol {
			break
		}
		prec.Precondition(z, r)
		rzNew := simd.Dot(r, z)
		if k == 0 {
			copy(p, z)
		} else {
			simd.Xpay(rzNew/rz, z, p)
		}
		rz = rzNew
		a.Apply(ap, p)
		pap := simd.Dot(p, ap)
		if pap <= 0 {
			// Breakdown: report the true divergence point — the residual of
			// the current iterate (r is untouched by the failing apply) and
			// the iteration we broke down in — so the CG watchdog and flight
			// recorder see where the solve actually died rather than the
			// stats of the previous iteration.
			return res, ErrCGBreakdown
		}
		alpha := rz / pap
		simd.Axpy(alpha, p, x)
		simd.Axpy(-alpha, ap, r)
		res.Iterations = k + 1
	}
	res.Converged = res.Residual < tol
	return res, nil
}
