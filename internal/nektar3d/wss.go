package nektar3d

import "fmt"

// WallShearStress computes the viscous shear stress τ = ρν ∂u_t/∂n on a
// wall face of the grid, per face node in FaceTrace order, for the
// tangential velocity component tang (0=u, 1=v, 2=w). §3.4 singles the mean
// WSS out as "a very important quantity in biological flows" — it is the
// hemodynamic driver of aneurysm wall remodeling the coupled simulation is
// built to predict. Density is 1 in solver units, so the prefactor is Nu.
func (s *Solver) WallShearStress(face string, tang int) []float64 {
	g := s.G
	var field []float64
	switch tang {
	case 0:
		field = s.U
	case 1:
		field = s.V
	case 2:
		field = s.W
	default:
		panic(fmt.Sprintf("nektar3d: tangential component %d", tang))
	}
	var dir int
	switch face {
	case "x0", "x1":
		dir = 0
	case "y0", "y1":
		dir = 1
	case "z0", "z1":
		dir = 2
	default:
		panic(fmt.Sprintf("nektar3d: unknown face %q", face))
	}
	grad := s.probeField()
	g.derivInto(grad, field, dir)
	// The wall-normal derivative taken along the inward normal gives the
	// stress the fluid exerts on the wall.
	sign := 1.0
	if face == "x1" || face == "y1" || face == "z1" {
		sign = -1
	}
	out := g.FaceTrace(grad, face)
	for i := range out {
		out[i] *= sign * s.Nu
	}
	return out
}

// MeanWallShearStress integrates the WSS over the face with the exact face
// quadrature and divides by the face area.
func (s *Solver) MeanWallShearStress(face string, tang int) float64 {
	wss := s.WallShearStress(face, tang)
	w := s.G.FaceQuadrature(face)
	var num, den float64
	for i := range wss {
		num += w[i] * wss[i]
		den += w[i]
	}
	return num / den
}
