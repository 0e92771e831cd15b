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
	var row gatherRow
	for cz := 0; cz < s.ncell[2]; cz++ {
		for cy := 0; cy < s.ncell[1]; cy++ {
			row.gather(s, cy, cz)
			for cx := 0; cx < s.ncell[0]; cx++ {
				for a := row.own[cx]; a < row.own[cx+1]; a++ {
					pi := &s.Particles[s.sidx[row.slot[a]]]
					for _, r := range [2][2]int32{{a + 1, row.own[cx+2]}, {row.col[cx], row.col[cx+3]}} {
						for k := r[0]; k < r[1]; k++ {
							pj := &s.Particles[s.sidx[row.slot[k]]]
							if pi.Frozen && pj.Frozen {
								continue
							}
							dx, dy, dz := row.x[a]-row.x[k], row.y[a]-row.y[k], row.z[a]-row.z[k]
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
