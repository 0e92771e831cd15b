package dpd

import (
	"math"
	"testing"

	"nektarg/internal/geometry"
)

// TestBoundaryForcesMatchPerParticleDensity holds ComputeForces, which takes
// the bulk density once per evaluation, to == against the boundary forces
// with the density measured again for every particle near a boundary. Both
// systems measure it (no flux face carries a Rho): a wall-only pipe like
// examples/pipeflow-wpod's, and a box with two open faces.
func TestBoundaryForcesMatchPerParticleDensity(t *testing.T) {
	pipe := func() *System {
		const radius, length = 3.0, 6.0
		p := DefaultParams(2)
		s := must(NewSystem(p, geometry.Vec3{X: -radius - 0.5, Y: -radius - 0.5},
			geometry.Vec3{X: radius + 0.5, Y: radius + 0.5, Z: length}, [3]bool{false, false, true}))(t)
		s.Walls = []Wall{&CylinderWall{Radius: radius}}
		for len(s.Particles) < 500 {
			s.FillRandom(1, 0)
			if q := s.Particles[len(s.Particles)-1].Pos; math.Hypot(q.X, q.Y) > radius-0.2 {
				s.Particles = s.Particles[:len(s.Particles)-1]
			}
		}
		return s
	}
	faces := func() *System {
		s := must(NewSystem(DefaultParams(1), geometry.Vec3{}, geometry.Vec3{X: 6, Y: 4, Z: 4}, [3]bool{false, true, true}))(t)
		s.Inflows = []*FluxBC{{Axis: 0}, {Axis: 0, AtMax: true}}
		s.FillRandom(300, 0)
		s.Particles[7].Frozen = true
		return s
	}
	for name, build := range map[string]func() *System{"pipe walls": pipe, "open faces": faces} {
		got, want := build(), build()
		got.ComputeForces()
		want.pairForces()
		gw := want.WallGamma()
		near := 0
		for i := range want.Particles {
			p := &want.Particles[i]
			if p.Frozen {
				continue
			}
			for _, w := range want.Walls {
				h := w.Distance(p.Pos)
				if h >= want.Rc {
					continue
				}
				near++
				h = max(h, 0)
				rel := p.Vel.Sub(w.Velocity(p.Pos))
				f := w.Normal(p.Pos).Scale(want.meanFieldBoundaryForce(h, want.targetDensity())).Sub(rel.Scale(gw * (1 - h/want.Rc)))
				p.F = p.F.Add(f)
			}
			for _, f := range want.Inflows {
				if h := f.faceDistance(want, p.Pos); h >= 0 && h < want.Rc {
					near++
					p.F = p.F.Add(f.inwardNormal().Scale(want.meanFieldBoundaryForce(h, want.targetDensity())))
				}
			}
		}
		if near == 0 {
			t.Fatalf("%s: no particle within rc of a boundary", name)
		}
		for i := range want.Particles {
			if got.Particles[i] != want.Particles[i] {
				t.Fatalf("%s: particle %d:\n  once per evaluation %+v\n  per particle        %+v", name, i, got.Particles[i], want.Particles[i])
			}
		}
	}
}
