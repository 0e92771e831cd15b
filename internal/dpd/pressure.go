package dpd

import "math"

// VirialPressure returns the instantaneous pressure from the virial theorem,
//
//	P = ρ kBT_kin + (1/3V) Σ_{i<j} r_ij · F^C_ij,
//
// using the conservative pair force only (dissipative and random forces
// cancel in the ensemble). Groot & Warren's equation of state
// P ≈ ρ kBT + α a ρ² with α ≈ 0.101 is the standard validation of a DPD
// fluid implementation, and fixes the compressibility that the paper's
// blood-plasma parameterization relies on.
func (s *System) VirialPressure() float64 {
	s.buildCells()
	rc2 := s.Rc * s.Rc
	short := s.short[0] || s.short[1] || s.short[2]
	var virial float64
	// Serial sweep over all pairs (measurement path, not the hot loop).
	w := s.walkCells(0, s.ncell[2])
	for w.next() {
		j0, j1 := s.cstart[w.nbr], s.cstart[w.nbr+1]
		for si := s.cstart[w.home]; si < s.cstart[w.home+1]; si++ {
			if w.same {
				j0 = si + 1
			}
			pi := &s.Particles[s.sidx[si]]
			for sj := j0; sj < j1; sj++ {
				pj := &s.Particles[s.sidx[sj]]
				if pi.Frozen && pj.Frozen {
					continue
				}
				dx := s.px[si] - s.px[sj] - w.shift.X
				dy := s.py[si] - s.py[sj] - w.shift.Y
				dz := s.pz[si] - s.pz[sj] - w.shift.Z
				if short {
					dx, dy, dz = s.foldShort(dx, dy, dz)
				}
				r2 := dx*dx + dy*dy + dz*dz
				if r2 >= rc2 || r2 == 0 {
					continue
				}
				r := math.Sqrt(r2)
				fc := s.A[pi.Species][pj.Species] * (1 - r/s.Rc)
				// r_ij · F_ij = r * fc for a central force.
				virial += r * fc
			}
		}
	}
	rho := s.NumberDensity()
	return rho*s.Temperature() + virial/(3*s.Volume())
}

// GrootWarrenPressure evaluates the reference equation of state
// P = ρ kBT + α a ρ² with α = 0.101.
func GrootWarrenPressure(a, rho, kBT float64) float64 {
	const alpha = 0.101
	return rho*kBT + alpha*a*rho*rho
}
