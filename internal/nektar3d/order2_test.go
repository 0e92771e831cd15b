package nektar3d

import (
	"math"
	"testing"
)

// tgEnergyError runs a 2D Taylor-Green vortex to t=0.25 at the given order
// and dt and returns the relative kinetic-energy error vs the exact decay.
func tgEnergyError(t *testing.T, order int, dt float64) float64 {
	t.Helper()
	nu := 0.1
	l := 2 * math.Pi
	g := must(NewGrid(3, 3, 1, 6, l, l, 1, true, true, true))(t)
	s := must(NewSolver(g, nu, dt))(t)
	s.Order = order
	s.Tol = 1e-11
	s.SetInitial(func(x, y, z float64) (float64, float64, float64) {
		return math.Sin(x) * math.Cos(y), -math.Cos(x) * math.Sin(y), 0
	})
	e0 := s.KineticEnergy()
	steps := int(math.Round(0.25 / dt))
	if err := s.Run(steps); err != nil {
		t.Fatal(err)
	}
	exact := e0 * math.Exp(-4*nu*s.Time)
	return math.Abs(s.KineticEnergy()-exact) / exact
}

func TestSecondOrderMoreAccurate(t *testing.T) {
	dt := 0.01
	e1 := tgEnergyError(t, 1, dt)
	e2 := tgEnergyError(t, 2, dt)
	t.Logf("Taylor-Green energy error at dt=%v: order1 %.3e, order2 %.3e", dt, e1, e2)
	if e2 >= e1/3 {
		t.Fatalf("order 2 (%.3e) not clearly more accurate than order 1 (%.3e)", e2, e1)
	}
}

func TestTemporalConvergenceRates(t *testing.T) {
	// Halving dt should reduce the error ~2x at order 1 and ~4x at order 2.
	e1a := tgEnergyError(t, 1, 0.02)
	e1b := tgEnergyError(t, 1, 0.01)
	r1 := e1a / e1b
	e2a := tgEnergyError(t, 2, 0.02)
	e2b := tgEnergyError(t, 2, 0.01)
	r2 := e2a / e2b
	t.Logf("error reduction on dt halving: order1 %.2fx, order2 %.2fx", r1, r2)
	if r1 < 1.6 || r1 > 2.6 {
		t.Errorf("order-1 convergence rate %.2f not ~2", r1)
	}
	if r2 < 3.0 {
		t.Errorf("order-2 convergence rate %.2f not ~4", r2)
	}
}

func TestOrder2BootstrapAndStability(t *testing.T) {
	// Order-2 runs must bootstrap from zero history and stay stable over a
	// longer horizon with walls and Dirichlet boundaries.
	g := must(NewGrid(1, 1, 3, 4, 1, 1, 1, true, true, false))(t)
	s := must(NewSolver(g, 0.5, 0.01))(t)
	s.Order = 2
	s.Force = func(_, _, _, _ float64) (float64, float64, float64) { return 1, 0, 0 }
	if err := s.Run(200); err != nil {
		t.Fatal(err)
	}
	// Steady Poiseuille: u(z) = z(1-z)/(2*0.5).
	var maxErr float64
	for k := 0; k < g.Nz; k++ {
		want := g.Z[k] * (1 - g.Z[k])
		if d := math.Abs(s.U[g.Idx(0, 0, k)] - want); d > maxErr {
			maxErr = d
		}
	}
	if maxErr > 5e-3 {
		t.Fatalf("order-2 Poiseuille error %g", maxErr)
	}
}

func TestUnsupportedOrderRejected(t *testing.T) {
	g := must(NewGrid(1, 1, 1, 2, 1, 1, 1, true, true, true))(t)
	s := must(NewSolver(g, 0.1, 0.01))(t)
	s.Order = 3
	if err := s.Step(); err == nil {
		t.Fatal("expected unsupported-order error")
	}
}
