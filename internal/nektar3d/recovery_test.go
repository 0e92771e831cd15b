package nektar3d_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"nektarg/internal/checkpoint"
	"nektarg/internal/core"
	"nektarg/internal/geometry"
	"nektarg/internal/monitor"
	"nektarg/internal/nektar3d"
)

// TestAdvanceSurfacesASpoiledFactor: a patch whose fast-diagonalization
// factor is spoiled fails the exchange in which its Run checks, and
// Metasolver.Advance returns that error, wrapping ErrCGStalled. Under the
// recover-and-resume loop the factor, derived data that no checkpoint holds,
// stays spoiled across every restore, so the fault re-fires at the same
// exchange until the restart budget is spent and the loop gives up with it.
func TestAdvanceSurfacesASpoiledFactor(t *testing.T) {
	for _, dirichlet := range []bool{true, false} {
		meta := func() *core.Metasolver {
			g, err := nektar3d.NewGrid(4, 2, 2, 6, 1.5, 1, 1, false, true, false)
			if err != nil {
				t.Fatal(err)
			}
			s, err := nektar3d.NewSolver(g, 0.5, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			s.Order = 2
			s.SetInitial(func(x, y, z float64) (u, v, w float64) {
				return z * (1 - z) * (1 + 0.3*math.Sin(2*x)), 0.1 * x * (1.5 - x), 0
			})
			nektar3d.SpoilFactor(g, dirichlet)
			m := core.NewMetasolver()
			m.NSStepsPerExchange = 5
			m.Patches = []*core.ContinuumPatch{core.NewContinuumPatch("A", s, geometry.Vec3{})}
			return m
		}

		m := meta()
		health := monitor.NewHealth()
		m.EnableMonitoring(health)
		err := m.Advance(1)
		if !errors.Is(err, nektar3d.ErrCGStalled) {
			t.Fatalf("dirichlet=%t: Advance = %v, want an error wrapping ErrCGStalled", dirichlet, err)
		}
		if m.Patches[0].Solver.Steps != 4 {
			t.Errorf("dirichlet=%t: the patch stopped after %d steps, want 4", dirichlet, m.Patches[0].Solver.Steps)
		}
		var cg int
		for _, e := range health.Events() {
			if e.Watchdog == "cg-watch" && e.Severity == monitor.SevWarn {
				cg++
			}
		}
		if cg != 1 {
			t.Errorf("dirichlet=%t: %d cg-watch warnings, want 1: %+v", dirichlet, cg, health.Events())
		}

		m = meta()
		ck := &core.Checkpointer{Meta: m, Store: &checkpoint.Store{Dir: t.TempDir()}, Every: 1}
		err = core.RunWithRecovery(ck, 3, core.RecoveryOptions{MaxRestarts: 2})
		if !errors.Is(err, nektar3d.ErrCGStalled) || !strings.Contains(err.Error(), "giving up") {
			t.Fatalf("dirichlet=%t: RunWithRecovery = %v, want it to give up on ErrCGStalled", dirichlet, err)
		}
	}
}
