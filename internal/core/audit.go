package core

// Physics-audit wiring for the metasolver: one conservation ledger per
// rank, fed once per coupling exchange. The budgets mirror the coupling
// surfaces of the paper's three-solver stack:
//
//	mass.div:<patch>        3D divergence norm (the projection's mass defect)
//	energy.kinetic:<patch>  3D kinetic-energy budget
//	gi.flux:<region>        ΓI velocity continuity: sent vs applied traces
//	gi.bytes:<region>       ΓI exchange byte legs (sent/received/applied)
//	momentum:<region>       DPD per-particle momentum magnitude
//	temperature:<region>    DPD kinetic temperature stability
//	1d.mass:<network>       1D network mass balance incl. windkessel outflow
//	q.match:<outlet>        1D↔3D flow-rate mismatch (see coupling1d.go)
//
// Like telemetry and monitoring, disabled means nil: without EnableAudit
// every hook in the exchange path no-ops at nil-receiver cost.

import (
	"math"

	"nektarg/internal/audit"
	"nektarg/internal/nektar3d"
)

// auditMinPopulation is the smallest mobile-particle count at which the DPD
// kinetic budgets (momentum, temperature) are statistically meaningful; a
// region below it is still filling and its budgets stay unseeded.
const auditMinPopulation = 32

// EnableAudit attaches a conservation ledger to the metasolver and to every
// registered outlet (its 1d.mass / q.match budgets). Call it after all
// patches, regions and outlets are registered (alongside EnableTelemetry /
// EnableMonitoring) and before Advance; per-patch tolerance floors are
// derived from the patches' flow and per-region floors from the DPD
// thermostat targets at that point. A nil ledger disables auditing.
func (m *Metasolver) EnableAudit(led *audit.Ledger) {
	m.aud = led
	for _, o := range m.Outlets {
		o.Aud = led
	}
	if led == nil {
		return
	}
	for _, p := range m.Patches {
		// The divergence is a mass-defect rate, so its jumps are judged
		// against the rate at which the patch's own flow renews its volume,
		// not against the budget's previous samples alone: a pulsatile
		// forcing's zero crossing seeds a near-zero reference, and the
		// rebound would read as a critical step.
		led.SetTolerance("mass.div:"+p.Name, audit.Tolerance{Floor: throughflowRate(p.Solver)})
	}
	for _, a := range m.Atomistic {
		// The momentum gauge watches the per-particle momentum magnitude, a
		// quantity that legitimately fluctuates at the thermal-velocity
		// scale √kBT: below that floor, drift is noise, not signal.
		led.SetTolerance("momentum:"+a.Name, audit.Tolerance{Floor: math.Sqrt(a.Sys.KBT)})
	}
}

// throughflowRate is a patch's volume-mean speed over its longest side: Q/V
// for a flow along that side. A patch at rest has none (0), and its budget
// keeps the class floor.
func throughflowRate(s *nektar3d.Solver) float64 {
	var speed, vol float64
	for i, w := range s.G.MassDiag() {
		speed += float64(w * math.Sqrt(float64(s.U[i]*s.U[i])+float64(s.V[i]*s.V[i])+float64(s.W[i]*s.W[i])))
		vol += w
	}
	return speed / vol / math.Max(s.G.Lx, math.Max(s.G.Ly, s.G.Lz))
}

// Audit returns the metasolver's ledger (nil when disabled).
func (m *Metasolver) Audit() *audit.Ledger { return m.aud }

// auditExchange feeds the per-exchange solver budgets after one coupling
// period has fully advanced: divergence and kinetic energy per patch,
// momentum and temperature per region. The ΓI flux/byte budgets are fed
// inline by coupleAtomistic (they need the pre/post-scaling traces), and
// the 1D budgets by OutletTo1D.Exchange (it owns the network step), which
// for a registered outlet runs after EndExchange: its observations belong
// to the next period's ledger row.
func (m *Metasolver) auditExchange() {
	if m.aud == nil {
		return
	}
	for _, p := range m.Patches {
		m.aud.ObserveDrift("mass.div:"+p.Name, p.Solver.MaxDivergence())
		m.aud.ObserveDrift("energy.kinetic:"+p.Name, p.Solver.KineticEnergy())
	}
	for _, a := range m.Atomistic {
		n := a.Sys.MobileCount()
		if n < auditMinPopulation {
			// A flux-fed region fills from empty; per-particle kinetic
			// statistics over a handful of particles are noise, not physics.
			// The budgets seed once the population is real.
			continue
		}
		perParticle := a.Sys.TotalMomentum().Norm() / float64(n)
		m.aud.ObserveDrift("momentum:"+a.Name, perParticle)
		// Temperature is a drift budget, not a residual against KBT: in a
		// driven region the apparent kinetic temperature includes the shear
		// profile (System.Temperature subtracts only the global mean), so the
		// audited invariant is stability of the settled value — a coupling
		// fault pumping energy in moves it, the thermostatted steady state
		// does not.
		m.aud.ObserveDrift("temperature:"+a.Name, a.Sys.Temperature())
	}
	m.aud.EndExchange(m.Exchanges)
}

// auditGammaI reconciles one region's ΓI exchange: the velocity trace the
// continuum side sent against the trace the flux BC actually applied (they
// differ only by the FluxScale fault knob or a genuine application bug),
// plus the three byte legs of the gather → root-exchange → scatter path.
func (m *Metasolver) auditGammaI(a *AtomisticRegion, sentMag, defect float64, centroids int) {
	if m.aud == nil {
		return
	}
	m.aud.ObserveResidual("gi.flux:"+a.Name, defect, sentMag)
	// In-process coupling moves each centroid's 3 float64 components once
	// per leg; a distributed MCI path reports the same ledger from its own
	// gather/scatter counts (see internal/mci).
	bytes := int64(centroids) * 3 * 8
	m.aud.CountExchange(a.Name, bytes, bytes, bytes)
}
