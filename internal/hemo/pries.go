// Package hemo implements the empirical blood rheology of the paper's §2:
// the in-vitro experiments of Fahraeus-Lindqvist (1931), Reinke (1987) and
// Pries, Neuhaus & Gaehtgens (1992) "have shown a dependence of the apparent
// blood viscosity on the tube diameter [and] RBC volume fraction". The Pries
// in-vitro fit below is the standard quantitative form of that dependence;
// it justifies the paper's modeling split — Newtonian continuum above
// ~500 µm, explicit cells below — and supplies the diameter-dependent
// friction for 1D network segments.
package hemo

import (
	"fmt"
	"math"
)

// RelativeViscosity045 returns the Pries fit for the relative apparent
// viscosity (plasma = 1) at discharge hematocrit 0.45 in a tube of diameter
// d micrometers:
//
//	η*(d) = 220 e^{-1.3 d} + 3.2 - 2.44 e^{-0.06 d^{0.645}}
func RelativeViscosity045(d float64) float64 {
	if d <= 0 {
		panic(fmt.Sprintf("hemo: diameter %v µm", d))
	}
	return float64(220*math.Exp(-1.3*d)) + 3.2 - float64(2.44*math.Exp(-0.06*math.Pow(d, 0.645)))
}

// shapeC returns the Pries hematocrit-dependence exponent C(d).
func shapeC(d float64) float64 {
	t := 1 / (1 + float64(1e-11*math.Pow(d, 12)))
	return float64((0.8+math.Exp(-0.075*d))*(-1+t)) + t
}

// RelativeViscosity returns the Pries in-vitro relative apparent viscosity
// for tube diameter d (µm) and discharge hematocrit hct in [0, 1):
//
//	η_rel = 1 + (η*(d) - 1) · ((1-hct)^C - 1) / ((1-0.45)^C - 1)
func RelativeViscosity(d, hct float64) float64 {
	if hct < 0 || hct >= 1 {
		panic(fmt.Sprintf("hemo: hematocrit %v out of [0,1)", hct))
	}
	if hct == 0 {
		return 1
	}
	c := shapeC(d)
	eta45 := RelativeViscosity045(d)
	num := math.Pow(1-hct, c) - 1
	den := math.Pow(1-0.45, c) - 1
	return 1 + (eta45-1)*num/den
}

// FahraeusLindqvistMinimum locates the tube diameter (µm) of minimal
// apparent viscosity at the given hematocrit by golden-section search over
// the capillary-to-arteriole range — the hallmark of the effect (the
// minimum sits near 6-8 µm, the capillary scale, which is why "blood can be
// assumed to be a nearly Newtonian fluid" only in tubes beyond several
// hundred µm).
func FahraeusLindqvistMinimum(hct float64) (diameter, viscosity float64) {
	lo, hi := 3.0, 100.0
	const phi = 0.6180339887498949
	a, b := lo, hi
	x1 := b - phi*(b-a)
	x2 := a + phi*(b-a)
	f1 := RelativeViscosity(x1, hct)
	f2 := RelativeViscosity(x2, hct)
	for i := 0; i < 200 && b-a > 1e-9; i++ {
		if f1 < f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - float64(phi*(b-a))
			f1 = RelativeViscosity(x1, hct)
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + float64(phi*(b-a))
			f2 = RelativeViscosity(x2, hct)
		}
	}
	d := (a + b) / 2
	return d, RelativeViscosity(d, hct)
}

// SegmentFriction converts the apparent viscosity into the 1D solver's
// friction coefficient: for Poiseuille flow the momentum sink is
// -8πν_app U/A per unit length, i.e. Kr = 8π ν_plasma η_rel(d, hct) with
// ν_plasma the plasma kinematic viscosity in the 1D solver's units.
func SegmentFriction(nuPlasma, diameterMicron, hct float64) float64 {
	return 8 * math.Pi * nuPlasma * RelativeViscosity(diameterMicron, hct)
}
