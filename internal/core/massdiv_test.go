package core

import (
	"math"
	"testing"

	"nektarg/internal/audit"
	"nektarg/internal/geometry"
	"nektarg/internal/nektar3d"
)

// pulsatilePatch is one order-3 channel patch under the benchmark's
// pulsatile forcing 1 + 0.8·sin(2πt/0.4 + φ), started from the Poiseuille
// profile its Dirichlet data holds, with the audit ledger on. The forcing
// period is four exchange periods, so at period ends the forcing's excess
// over the steady value cycles through ±sin φ, ±cos φ, and the projection's
// divergence follows it.
func pulsatilePatch(t testing.TB, phi float64) (*Metasolver, *nektar3d.Solver, *audit.Ledger) {
	g := must(nektar3d.NewGrid(2, 1, 1, 3, 1.5, 1, 1, false, true, false))(t)
	s := must(nektar3d.NewSolver(g, 0.5, 0.01))(t)
	s.Order = 2
	s.Force = func(t, _, _, _ float64) (float64, float64, float64) {
		return 1 + 0.8*math.Sin(2*math.Pi*t/0.4+phi), 0, 0
	}
	s.SetInitial(poiseuille)
	s.VelBC = func(_, x, y, z float64) (float64, float64, float64) { return poiseuille(x, y, z) }
	m := NewMetasolver()
	m.NSStepsPerExchange = 10
	m.Patches = []*ContinuumPatch{NewContinuumPatch("feed", s, geometry.Vec3{})}
	led := audit.New(audit.Options{})
	m.EnableAudit(led)
	return m, s, led
}

func poiseuille(_, _, z float64) (float64, float64, float64) { return z * (1 - z), 0, 0 }

func massDivSeverity(t *testing.T, led *audit.Ledger) audit.Severity {
	t.Helper()
	for _, b := range led.Status().Budgets {
		if b.Name == "mass.div:feed" {
			return b.StepSeverity
		}
	}
	t.Fatal("no mass.div:feed budget")
	return 0
}

// TestMassDivPulsatileNoFalseCritical: at no phase of the pulsatile
// forcing does the healthy rebound after a zero crossing of the forcing's
// excess latch a mass.div critical. Judged against the budget's own first
// samples alone, it did at φ = π/2 and 3π/2. A doubled inflow injected
// mid-run is a real mass defect and must still latch critical.
func TestMassDivPulsatileNoFalseCritical(t *testing.T) {
	const exchanges = 8
	for k := 0; k < 8; k++ {
		phi := 2 * math.Pi * float64(k) / 8
		m, s, led := pulsatilePatch(t, phi)
		if err := m.Advance(exchanges); err != nil {
			t.Fatal(err)
		}
		if sev := massDivSeverity(t, led); sev == audit.SevCritical {
			t.Errorf("φ = %.3f: healthy pulsatile run latched mass.div critical:\n%s", phi, led.FormatTable())
		}

		m, s, led = pulsatilePatch(t, phi)
		if err := m.Advance(exchanges / 2); err != nil {
			t.Fatal(err)
		}
		s.VelBC = func(_, x, y, z float64) (float64, float64, float64) {
			u, v, w := poiseuille(x, y, z)
			if x == 0 {
				u *= 2 // the inflow face carries twice the patch's throughflow
			}
			return u, v, w
		}
		if err := m.Advance(exchanges / 2); err != nil {
			t.Fatal(err)
		}
		if sev := massDivSeverity(t, led); sev != audit.SevCritical {
			t.Errorf("φ = %.3f: doubled inflow left mass.div at %s, want critical:\n%s", phi, sev, led.FormatTable())
		}
	}
}
