// Package dpd implements the mesoscopic solver of the paper: dissipative
// particle dynamics (Hoogerbrugge-Koelman 1992; Groot-Warren 1997) with the
// extensions the in-house DPD-LAMMPS carried — multiple particle species,
// non-periodic boundary conditions for unsteady flows (no-slip walls via
// bounce-back plus effective boundary forces, inflow/outflow with particle
// insertion/deletion driven by local flux), deterministic parallel force
// evaluation, and field sampling for coupling and WPOD post-processing.
//
// Particles interact through three pairwise forces inside a cutoff rc:
//
//	F^C = a_ij (1 - r/rc) r̂                      (conservative)
//	F^D = -γ (1 - r/rc)² (r̂·v_ij) r̂             (dissipative)
//	F^R = σ (1 - r/rc) ξ r̂ / √dt,  σ² = 2γ kBT  (random)
//
// and move by Newton's second law, integrated with the DPD-adapted
// velocity-Verlet scheme (λ = 1/2). The random numbers are generated from a
// counter-based hash of (step, particle ids), making the force evaluation
// deterministic under any parallel schedule.
package dpd

import "fmt"

// Params holds the fluid model parameters.
type Params struct {
	// Rc is the interaction cutoff radius.
	Rc float64
	// A[s1][s2] is the conservative repulsion between species s1 and s2.
	A [][]float64
	// Gamma is the dissipative friction coefficient.
	Gamma float64
	// KBT is the thermostat target temperature (σ² = 2 γ kBT).
	KBT float64
	// Dt is the time step.
	Dt float64
	// Lambda is the velocity-Verlet velocity-prediction factor (0.5 is
	// Groot-Warren's choice).
	Lambda float64
	// Seed feeds the counter-based random force generator.
	Seed uint64
}

// DefaultParams returns the standard DPD fluid of Groot & Warren: a=25,
// γ=4.5, kBT=1, rc=1, number density ρ=3.
func DefaultParams(nspecies int) Params {
	a := make([][]float64, nspecies)
	for i := range a {
		a[i] = make([]float64, nspecies)
		for j := range a[i] {
			a[i][j] = 25
		}
	}
	return Params{
		Rc:     1,
		A:      a,
		Gamma:  4.5,
		KBT:    1,
		Dt:     0.01,
		Lambda: 0.5,
		Seed:   0x9e3779b97f4a7c15,
	}
}

// Validate checks parameter sanity.
func (p *Params) Validate() error {
	if p.Rc <= 0 {
		return fmt.Errorf("dpd: cutoff %v must be positive", p.Rc)
	}
	if p.Gamma < 0 || p.KBT < 0 {
		return fmt.Errorf("dpd: gamma %v and kBT %v must be non-negative", p.Gamma, p.KBT)
	}
	if p.Dt <= 0 {
		return fmt.Errorf("dpd: dt %v must be positive", p.Dt)
	}
	if len(p.A) == 0 {
		return fmt.Errorf("dpd: species matrix empty")
	}
	for i := range p.A {
		if len(p.A[i]) != len(p.A) {
			return fmt.Errorf("dpd: species matrix not square")
		}
		for j := range p.A[i] {
			if p.A[i][j] != p.A[j][i] {
				return fmt.Errorf("dpd: species matrix not symmetric at (%d,%d)", i, j)
			}
		}
	}
	if p.Lambda <= 0 || p.Lambda > 1 {
		return fmt.Errorf("dpd: lambda %v out of (0,1]", p.Lambda)
	}
	return nil
}

// splitmix64 is the counter-based generator step for the random forces.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pairXiKeyed returns a zero-mean unit-variance random number for the (i, j)
// pair, symmetric in i and j, at the step whose key — seed ^ splitmix64(step),
// computed once per force evaluation — is given. Uniform on [-√3, √3], which
// is sufficient for the DPD thermostat (Groot & Warren §II.C).
func pairXiKeyed(stepKey uint64, id1, id2 int64) float64 {
	if id1 > id2 {
		id1, id2 = id2, id1
	}
	h := splitmix64(stepKey ^ (uint64(id1)<<32 | uint64(uint32(id2))))
	const sqrt3 = 1.7320508075688772
	return (2*float64(h>>11)/float64(1<<53) - 1) * sqrt3
}
