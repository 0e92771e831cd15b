package nektar3d

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"nektarg/internal/linalg"
	"nektarg/internal/monitor"
	"nektarg/internal/simd"
)

// workloadSolver is a Navier-Stokes solver on the continuum workload's patch
// shape (4×2×2 order-6 elements on [1.5,1,1], periodic in y) with a sheared,
// x-varying start, so every solve has modes in every direction. bc adds
// time-dependent Dirichlet velocity; rest starts from zero velocity with no
// force, so every right-hand side is zero.
func workloadSolver(t testing.TB, order int, bc, rest bool) *Solver {
	t.Helper()
	g := must(NewGrid(4, 2, 2, 6, 1.5, 1, 1, false, true, false))(t)
	s := must(NewSolver(g, 0.5, 0.01))(t)
	s.Order = order
	if rest {
		return s
	}
	s.SetInitial(func(x, y, z float64) (u, v, w float64) {
		return z * (1 - z) * (1 + 0.3*math.Sin(2*x)), 0.1 * x * (1.5 - x), 0.05 * math.Cos(2*math.Pi*y) * x
	})
	s.Force = func(_, x, _, _ float64) (float64, float64, float64) { return 1, 0, 0.2 * x }
	if bc {
		s.VelBC = func(t, x, y, z float64) (float64, float64, float64) {
			return z * (1 - z) * (1 + 0.5*math.Sin(20*t)), 0.01 * x, 0
		}
	}
	return s
}

// TestRunMatchesCheckedSteps: Run(n) takes n-1 solves unchecked and checks
// the last, and must give the fields n checked Steps give, ==, signs of zero
// included: at time orders 1 and 2, with and without Dirichlet velocity, and
// from rest, where every right-hand side is zero.
func TestRunMatchesCheckedSteps(t *testing.T) {
	for _, c := range []struct {
		order    int
		bc, rest bool
	}{{1, false, false}, {2, false, false}, {1, true, false}, {2, true, false}, {2, false, true}} {
		name := fmt.Sprintf("order %d, VelBC %t, at rest %t", c.order, c.bc, c.rest)
		run, steps := workloadSolver(t, c.order, c.bc, c.rest), workloadSolver(t, c.order, c.bc, c.rest)
		for range 2 { // the second Run starts from a history the first built
			if err := run.Run(6); err != nil {
				t.Fatalf("%s: Run: %v", name, err)
			}
			for range 6 {
				if err := steps.Step(); err != nil {
					t.Fatalf("%s: Step: %v", name, err)
				}
			}
		}
		if run.Steps != steps.Steps || run.Time != steps.Time {
			t.Fatalf("%s: Run reached step %d at t=%v, Step %d at t=%v", name, run.Steps, run.Time, steps.Steps, steps.Time)
		}
		for _, f := range []struct {
			name      string
			got, want []float64
		}{{"U", run.U, steps.U}, {"V", run.V, steps.V}, {"W", run.W, steps.W}, {"Pr", run.Pr, steps.Pr}} {
			for i := range f.want {
				if f.got[i] != f.want[i] || math.Signbit(f.got[i]) != math.Signbit(f.want[i]) {
					t.Fatalf("%s: %s[%d] = %v after Run, %v after Steps", name, f.name, i, f.got[i], f.want[i])
				}
			}
		}
	}
}

// TestDirectSolvesFollowCGsZeroRule: a right-hand side whose norm is 0 in
// floating point (every entry tiny enough that its square underflows) has
// the solution +0 in CG, and so in the unchecked solves, although the
// fast-diagonalization solve of it is not zero.
func TestDirectSolvesFollowCGsZeroRule(t *testing.T) {
	g := must(NewGrid(3, 1, 2, 4, 1.5, 1, 1, false, true, false))(t)
	tiny := randomField(g, 3)
	for i := range tiny {
		tiny[i] *= 1e-170
	}
	bc := g.NewField() // homogeneous, so the lifted right-hand side is M f
	checked, direct := g.NewField(), g.NewField()
	if _, err := g.SolveHelmholtzDirichletIn(checked, 300, tiny, bc, 1e-8, 4000); err != nil {
		t.Fatal(err)
	}
	g.solveHelmholtzDirect(direct, 300, tiny, bc)
	pc, pd := g.NewField(), g.NewField()
	if _, err := g.SolvePoissonNeumannIn(pc, tiny, 1e-8, 4000); err != nil {
		t.Fatal(err)
	}
	g.solvePoissonDirect(pd, tiny)
	for _, f := range [][]float64{checked, direct, pc, pd} {
		for i, v := range f {
			if v != 0 || math.Signbit(v) {
				t.Fatalf("node %d is %v, want +0", i, v)
			}
		}
	}
	_, b := g.helmholtzSeed(300, tiny, bc)
	g.arena().dir.Precondition(direct, b)
	if maxAbsDiff(direct, g.NewField()) == 0 {
		t.Fatal("the fast-diagonalization solve of the tiny right-hand side is zero; the test shows nothing")
	}
}

// countingOp counts the applies of the operator it wraps.
type countingOp struct {
	linalg.Operator
	n *int
}

func (o countingOp) Apply(y, x []float64) {
	*o.n++
	o.Operator.Apply(y, x)
}

// TestRunChecksOneStep counts CG's operator applies, one per residual: a
// checked Step computes four (one pressure, three viscous solves), and so
// does a whole Run, whatever its length, because only its last step checks.
func TestRunChecksOneStep(t *testing.T) {
	s := workloadSolver(t, 2, true, false)
	var applies int
	ar := s.G.arena()
	ar.opIface = countingOp{ar.op, &applies}
	ar.mopIface = countingOp{ar.mop, &applies}
	for _, c := range []struct {
		name string
		f    func() error
		want int
	}{
		{"Step", s.Step, 4},
		{"Run(10)", func() error { return s.Run(10) }, 4},
		{"Run(1)", func() error { return s.Run(1) }, 4},
		{"Run(0)", func() error { return s.Run(0) }, 0},
		{"3 Steps", func() error { return errors.Join(s.Step(), s.Step(), s.Step()) }, 12},
	} {
		applies = 0
		if err := c.f(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if applies != c.want {
			t.Errorf("%s: %d residual applies, want %d", c.name, applies, c.want)
		}
	}
}

// TestRunStopsOnASpoiledFactor spoils the fast diagonalization, one
// eigenvalue off by half: of the Dirichlet x-factor, which only the viscous
// solves use, or of the natural one, which only the pressure solve uses. The
// unchecked steps cannot see it, so the Run's checking step must: Run(10)
// returns an error wrapping ErrCGStalled after nine steps, without CG
// iterating on it, and the CG watchdog raises an event.
func TestRunStopsOnASpoiledFactor(t *testing.T) {
	for _, c := range []struct {
		name      string
		dirichlet bool
		stage     string
	}{{"Dirichlet", true, "ns.helmholtz"}, {"natural", false, "ns.pressure"}} {
		s := workloadSolver(t, 2, true, false)
		h := monitor.NewHealth()
		s.Watch = h.Watch("patch:test")
		SpoilFactor(s.G, c.dirichlet)
		err := s.Run(10)
		if !errors.Is(err, ErrCGStalled) {
			t.Fatalf("%s: Run(10) = %v, want an error wrapping ErrCGStalled", c.name, err)
		}
		if s.Steps != 9 {
			t.Errorf("%s: Run stopped after %d steps, want 9", c.name, s.Steps)
		}
		var events int
		for _, e := range h.Events() {
			if e.Watchdog == "cg-watch" && e.Severity == monitor.SevWarn && strings.HasPrefix(e.Message, c.stage) {
				events++
			}
		}
		if events != 1 {
			t.Errorf("%s: %d cg-watch warnings for %s, want 1: %+v", c.name, events, c.stage, h.Events())
		}
	}
}

// TestZeroNormIsCGsRule: zeroNorm, which stops at the first square that is
// not 0, agrees with CG's sqrt(Dot(b, b)) == 0 on vectors of ±0, of values
// whose squares underflow or not, and with NaN and ±Inf.
func TestZeroNormIsCGsRule(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pool := []float64{0, math.Copysign(0, -1), 1e-170, -1e-163, 1.5e-162, 1e-161, 1, math.NaN(), math.Inf(1), math.Inf(-1), 5e-324}
	for n := 0; n < 2000; n++ {
		b := make([]float64, 1+rng.Intn(9))
		for i := range b {
			b[i] = pool[rng.Intn(3)] // mostly zero or tiny
			if rng.Intn(4) == 0 {
				b[i] = pool[rng.Intn(len(pool))]
			}
		}
		if got, want := zeroNorm(b), math.Sqrt(simd.Dot(b, b)) == 0; got != want {
			t.Fatalf("%v: zeroNorm %t, CG's rule %t", b, got, want)
		}
	}
}

// TestRunHoldsPressureToTol: Run's checking step holds the pressure solve to
// Tol itself, not to the sqrt(Tol) a stopped CG is allowed. At Tol 1e-20 the
// round-off residual is above Tol and under sqrt(Tol), so Run fails in its
// pressure solve, where Step with no CG budget fails only in a viscous one
// (TestWatchdogSeesFailedSolves).
func TestRunHoldsPressureToTol(t *testing.T) {
	s := workloadSolver(t, 2, false, false)
	s.Tol = 1e-20
	err := s.Run(3)
	if !errors.Is(err, ErrCGStalled) || !strings.Contains(err.Error(), "pressure solve") {
		t.Fatalf("Run(3) at Tol 1e-20 = %v, want the pressure solve to wrap ErrCGStalled", err)
	}
	if s.Steps != 2 {
		t.Errorf("Run stopped after %d steps, want 2", s.Steps)
	}
}
