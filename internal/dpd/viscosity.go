package dpd

import (
	"fmt"

	"nektarg/internal/geometry"
)

// MeasureViscosity estimates the kinematic viscosity of the DPD fluid
// defined by p at number density rho, by driving a plane Poiseuille flow
// with a uniform body force and fitting the steady mean velocity:
//
//	ū = f H² / (12 ν)  ⇒  ν = f H² / (12 ū)
//
// for a channel of width H with no-slip walls. This is how the ν_DPD
// entering the Eq. 1 velocity scaling is obtained for a given parameter set
// (the paper: "fluid properties (e.g., viscosity) in different descriptions
// may not necessarily be the same in various method's units").
//
// The measurement runs warmupSteps to develop the flow and sampleSteps of
// averaging; ~3000/2000 at dt=0.005 gives a few percent accuracy for the
// standard fluid.
func MeasureViscosity(p Params, rho, force float64, warmupSteps, sampleSteps int) (float64, error) {
	if rho <= 0 || force <= 0 {
		return 0, fmt.Errorf("dpd: MeasureViscosity needs rho, force > 0")
	}
	const (
		lx, ly = 6.0, 6.0
		h      = 6.0 // channel width
	)
	sys, err := NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: lx, Y: ly, Z: h}, [3]bool{true, true, false})
	if err != nil {
		return 0, err
	}
	sys.Walls = []Wall{
		&PlaneWall{Point: geometry.Vec3{}, Norm: geometry.Vec3{Z: 1}},
		&PlaneWall{Point: geometry.Vec3{Z: h}, Norm: geometry.Vec3{Z: -1}},
	}
	sys.External = func(_ float64, _ *Particle) geometry.Vec3 {
		return geometry.Vec3{X: force}
	}
	sys.FillRandom(int(rho*lx*ly*h), 0)
	sys.Run(warmupSteps)

	// Mean streamwise velocity over the channel interior (excluding the
	// wall-force layers, where the effective-force model distorts the
	// parabola slightly).
	var sum float64
	var n int
	for s := 0; s < sampleSteps; s++ {
		sys.VVStep()
		for i := range sys.Particles {
			pt := &sys.Particles[i]
			if pt.Frozen || pt.Pos.Z < 1 || pt.Pos.Z > h-1 {
				continue
			}
			sum += pt.Vel.X
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("dpd: no interior samples")
	}
	uMean := sum / float64(n)
	if uMean <= 0 {
		return 0, fmt.Errorf("dpd: flow did not develop (mean u = %v)", uMean)
	}
	// The interior window [1, H-1] of the parabola u(z) = f z(H-z)/(2ν)
	// has mean f (H²/6 + c) ... integrate exactly: ∫₁^{H-1} z(H-z) dz /
	// (H-2) = (H²/6 - 1/3·(3H-2)/(H-2))·... compute numerically below.
	a, b := 1.0, h-1.0
	integral := (h*(b*b-a*a)/2 - (b*b*b-a*a*a)/3) / (b - a)
	nu := force * integral / (2 * uMean)
	return nu, nil
}
