package nektar3d

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"nektarg/internal/linalg"
	"nektarg/internal/monitor"
)

// benchPatches are the four patch shapes of the repo benchmark's workloads
// (bench/workload.go): size [1.5,1,1], periodic [false,true,false].
func benchPatches() []*Grid {
	var gs []*Grid
	for _, s := range [][4]int{{4, 2, 2, 6}, {3, 1, 2, 3}, {2, 1, 1, 3}, {3, 1, 2, 4}} {
		gs = append(gs, NewGrid(s[0], s[1], s[2], s[3], 1.5, 1, 1, false, true, false))
	}
	return gs
}

// relDiff returns max|a-b| / max|b|.
func relDiff(a, b []float64) float64 {
	var d, n float64
	for i := range a {
		d = math.Max(d, math.Abs(a[i]-b[i]))
		n = math.Max(n, math.Abs(b[i]))
	}
	return d / n
}

// TestFDMInvertsOperator pins the claim the zero-iteration solves rest on:
// on a Grid the preconditioner is the inverse of λM + K — of its mean-free
// part for the singular pure-Neumann operator, of its interior block (with
// identity rows on the mask) under Dirichlet boundaries.
func TestFDMInvertsOperator(t *testing.T) {
	for _, p := range []int{2, 3, 6, 8} {
		for per := 0; per < 8; per++ {
			px, py, pz := per&1 != 0, per&2 != 0, per&4 != 0
			g := NewGrid(3, 2, 1, p, 1.5, 1.0, 0.7, px, py, pz)
			ar := g.arena()
			interior := 0
			for _, m := range ar.mask {
				if !m {
					interior++
				}
			}
			for _, lambda := range []float64{0, 200, 300} {
				name := fmt.Sprintf("P=%d per=%v%v%v lambda=%g", p, px, py, pz, lambda)
				x := randomField(g, int64(p*100+per))
				want := append([]float64(nil), x...)
				if lambda == 0 {
					g.removeMean(want)
				}
				y, z := g.NewField(), g.NewField()
				ar.op.lambda, ar.nat.lambda = lambda, lambda
				ar.op.Apply(y, x)
				ar.nat.Precondition(z, y)
				if d := relDiff(z, want); d > 1e-9 {
					t.Errorf("%s natural: |P(Ax) - x| = %.3g", name, d)
				}

				// Dirichlet: x vanishes on the mask, the residual does not.
				noise := randomField(g, int64(p*100+per+50))
				for i, m := range ar.mask {
					if m {
						x[i] = 0
					}
				}
				copy(want, x)
				if lambda == 0 && interior == len(x) {
					g.removeMean(want) // fully periodic: the Neumann case again
				}
				ar.mop.lambda, ar.dir.lambda = lambda, lambda
				ar.mop.Apply(y, x)
				for i, m := range ar.mask {
					if m {
						y[i], want[i] = noise[i], noise[i]
					}
				}
				ar.dir.Precondition(z, y)
				if d := relDiff(z, want); d > 1e-9 {
					t.Errorf("%s Dirichlet: |P(Ax) - x| = %.3g", name, d)
				}
			}
		}
	}
}

// TestSolvesConvergeInOneOrTwoIterations (named when CG started from last
// step's field and took one or two) runs the arena solves the way the NS
// step does on the benchmark's patch shapes, with a rough right-hand side,
// at the bootstrap and BDF2 values of λ: the fast-diagonalization seed must
// leave CG nothing to do, and by a margin — the residual CG measures on
// entry is round-off, not merely under the step's 1e-8.
func TestSolvesConvergeInOneOrTwoIterations(t *testing.T) {
	for _, g := range benchPatches() {
		name := fmt.Sprintf("%dx%dx%d P=%d", g.Nex, g.Ney, g.Nez, g.P)
		rhs := randomField(g, 7)
		check := func(what string, st linalg.SolveStats, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s %s: %v", name, what, err)
			}
			if !st.Converged || st.Iterations != 0 || !(st.Residual < 1e-10) {
				t.Errorf("%s %s: converged=%v after %d iterations (residual %.3g), want 0 iterations under 1e-10",
					name, what, st.Converged, st.Iterations, st.Residual)
			}
		}
		st, err := g.SolvePoissonNeumannIn(g.NewField(), rhs, 1e-8, 4000)
		check("Poisson", st, err)
		bc := randomField(g, 8)
		for _, lambda := range []float64{200, 300} {
			st, err = g.SolveHelmholtzDirichletIn(g.NewField(), lambda, rhs, bc, 1e-8, 4000)
			check(fmt.Sprintf("Helmholtz lambda=%g", lambda), st, err)
		}
	}
}

// TestFDMBeatsJacobi is the preconditioner ablation behind EXPERIMENTS.md:
// the Jacobi-preconditioned CG the arena ran before (rebuilt here from the
// reference stiffness diagonal) against the arena solve, on the benchmark's
// order-6 patch.
func TestFDMBeatsJacobi(t *testing.T) {
	g := benchPatches()[0]
	ar := g.arena()
	rhs := randomField(g, 7)
	const tol, maxIter = 1e-8, 4000

	jacobi := func(lambda float64, mask []bool) linalg.Preconditioner {
		diag := g.NewField()
		g.stiffnessDiagRef(diag)
		for i := range diag {
			diag[i] += lambda * g.massDiag[i]
			if mask != nil && mask[i] {
				diag[i] = 1
			}
		}
		return linalg.NewJacobiPrec(diag)
	}

	// Pressure Poisson, as SolvePoissonNeumannIn poses it.
	b := g.NewField()
	var mean float64
	for i := range b {
		b[i] = -g.massDiag[i] * rhs[i]
		mean += b[i]
	}
	for i := range b {
		b[i] -= mean / float64(len(b))
	}
	jp, err := linalg.CG(&helmholtzOp{g: g}, g.NewField(), b, meanFreePrec{inner: jacobi(0, nil)}, tol, maxIter)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := g.SolvePoissonNeumannIn(g.NewField(), rhs, tol, maxIter)
	if err != nil {
		t.Fatal(err)
	}

	// Viscous Helmholtz at the BDF2 shift, homogeneous Dirichlet data.
	const lambda = 300
	for i := range b {
		b[i] = g.massDiag[i] * rhs[i]
		if ar.mask[i] {
			b[i] = 0
		}
	}
	jh, err := linalg.CG(&helmholtzOp{g: g, lambda: lambda, mask: ar.mask}, g.NewField(), b, jacobi(lambda, ar.mask), tol, maxIter)
	if err != nil {
		t.Fatal(err)
	}
	fh, err := g.SolveHelmholtzDirichletIn(g.NewField(), lambda, rhs, g.NewField(), tol, maxIter)
	if err != nil {
		t.Fatal(err)
	}

	t.Logf("ablation: CG iterations on %d nodes — Poisson: Jacobi %d, FDM %d; Helmholtz (lambda=%d): Jacobi %d, FDM %d",
		g.NumNodes(), jp.Iterations, fp.Iterations, lambda, jh.Iterations, fh.Iterations)
	if !jp.Converged || !jh.Converged {
		t.Fatalf("Jacobi baseline did not converge: Poisson %v, Helmholtz %v", jp.Converged, jh.Converged)
	}
	if fp.Iterations*10 > jp.Iterations || fh.Iterations*5 > jh.Iterations {
		t.Errorf("FDM should cut iterations by an order of magnitude: Poisson %d vs %d, Helmholtz %d vs %d",
			fp.Iterations, jp.Iterations, fh.Iterations, jh.Iterations)
	}
}

// TestWatchdogSeesFailedSolves: a solve that fails must reach the CG
// watchdog before Step returns its error — for the pressure solve and for
// the first velocity component, not just a W solve that succeeded.
func TestWatchdogSeesFailedSolves(t *testing.T) {
	newSolver := func() (*Solver, *monitor.Health) {
		g := NewGrid(2, 1, 2, 3, 1, 1, 1, false, true, false)
		s := NewSolver(g, 0.5, 0.01)
		s.Force = func(_, _, _, _ float64) (float64, float64, float64) { return 1, 0, 0 }
		s.SetInitial(func(x, y, z float64) (u, v, w float64) { return z * (1 - z), 0.1 * x, 0 })
		h := monitor.NewHealth()
		s.Watch = h.Watch("patch:test")
		return s, h
	}
	stagnations := func(h *monitor.Health, stage string) int {
		n := 0
		for _, e := range h.Events() {
			if e.Watchdog == "cg-watch" && e.Severity == monitor.SevWarn && strings.HasPrefix(e.Message, stage) {
				n++
			}
		}
		return n
	}

	// No budget alone converges (the seed is already under any reachable
	// tolerance); no budget and a tolerance no residual is below stalls.
	s, h := newSolver()
	s.MaxIter = 0
	s.Tol = 0
	err := s.Step()
	if !errors.Is(err, ErrCGStalled) {
		t.Fatalf("MaxIter=0, Tol=0 step: err = %v, want ErrCGStalled", err)
	}
	if stagnations(h, "ns.pressure") != 1 {
		t.Fatalf("pressure stall did not reach the watchdog: events %+v", h.Events())
	}
	if s.Steps != 0 {
		t.Fatalf("failed step advanced the counter to %d", s.Steps)
	}

	// Stall the first viscous solve only: the seed's residual is round-off,
	// under the Poisson solve's sqrt(tol) acceptance gate but above tol, and
	// there is no budget to iterate on it.
	s, h = newSolver()
	s.MaxIter = 0
	s.Tol = 1e-20
	err = s.Step()
	if !errors.Is(err, ErrCGStalled) {
		t.Fatalf("unreachable-tolerance step: err = %v, want ErrCGStalled", err)
	}
	if stagnations(h, "ns.helmholtz") != 1 {
		t.Fatalf("velocity stall (component u) did not reach the watchdog: err %v, events %+v", err, h.Events())
	}
}
