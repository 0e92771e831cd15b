// Package core implements NεκTαrG, the metasolver of the paper: it owns the
// registry of patch solvers (NεκTαr-3D continuum patches, DPD-LAMMPS
// atomistic regions), the unit scaling that glues descriptions together
// (Eq. 1), the continuum-continuum interface conditions of §3.2, the
// continuum-atomistic coupling protocol of §3.3 (interface triangulation,
// ownership discovery, staggered time progression Δt_NS = 20 Δt_DPD with
// exchanges every τ = 10 Δt_NS), and the interface-continuity diagnostics of
// Figure 9.
package core

import "fmt"

// Units defines one solver's unit system relative to SI: L is meters per
// unit length, Nu the kinematic viscosity in solver units. In the paper
// L_NS = 1 mm and L_DPD = 5 µm.
type Units struct {
	L  float64
	Nu float64
}

// Validate checks positivity.
func (u Units) Validate() error {
	if u.L <= 0 || u.Nu <= 0 {
		return fmt.Errorf("core: units need L, Nu > 0, got %+v", u)
	}
	return nil
}

// VelocityScale returns the factor converting a velocity in `from` units to
// `to` units so the Reynolds number is preserved. This is Eq. 1 of the
// paper, v_DPD = v_NS (L_NS/L_DPD)(ν_DPD/ν_NS), where the paper's L_NS/L_DPD
// is the ratio of a physical length *measured in each system's units* —
// i.e. the inverse of the unit-size ratio:
//
//	v_to = v_from * (L_to_unit / L_from_unit)⁻¹ ... = v_from * (to.L/from.L)... (see below)
//
// With Units.L in meters-per-unit: a physical length ℓ has value ℓ/from.L in
// `from` units and ℓ/to.L in `to` units, so matching Re = v·x/ν gives
//
//	v_to = v_from * (to.L / from.L) * (to.Nu / from.Nu).
func VelocityScale(from, to Units) float64 {
	if err := from.Validate(); err != nil {
		panic(err)
	}
	if err := to.Validate(); err != nil {
		panic(err)
	}
	return (to.L / from.L) * (to.Nu / from.Nu)
}

// LengthScale returns the factor converting a length in `from` units to `to`
// units.
func LengthScale(from, to Units) float64 { return from.L / to.L }
