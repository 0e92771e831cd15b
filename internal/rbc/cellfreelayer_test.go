package rbc

import (
	"math"
	"testing"

	"nektarg/internal/dpd"
	"nektarg/internal/geometry"
)

func TestCellFreeLayerGeometry(t *testing.T) {
	sys := quietSystem(t, geometry.Vec3{X: -4, Y: -4, Z: 0}, geometry.Vec3{X: 4, Y: 4, Z: 6})
	m := NewMembrane(sys, geometry.Vec3{Z: 3}, 1.0, 1, 1, Healthy(), 1.0)
	b, top := CellFreeLayer(sys, []*Membrane{m}, 0, 6)
	// Sphere of radius 1 centered at z=3: gaps of 2 on both sides.
	if math.Abs(b-2) > 1e-9 || math.Abs(top-2) > 1e-9 {
		t.Fatalf("CFL = %v / %v want 2 / 2", b, top)
	}
	if m2 := MeanCellFreeLayer(sys, []*Membrane{m}, 0, 6); math.Abs(m2-2) > 1e-9 {
		t.Fatalf("mean CFL = %v", m2)
	}
}

func TestCellFreeLayerMultipleCells(t *testing.T) {
	sys := quietSystem(t, geometry.Vec3{X: -4, Y: -4, Z: 0}, geometry.Vec3{X: 4, Y: 4, Z: 8})
	cells := []*Membrane{
		NewMembrane(sys, geometry.Vec3{Z: 2}, 0.8, 1, 1, Healthy(), 1.0),
		NewMembrane(sys, geometry.Vec3{X: 1.5, Z: 6}, 0.8, 1, 1, Healthy(), 1.0),
	}
	b, top := CellFreeLayer(sys, cells, 0, 8)
	if math.Abs(b-1.2) > 1e-9 {
		t.Fatalf("bottom CFL = %v want 1.2", b)
	}
	if math.Abs(top-1.2) > 1e-9 {
		t.Fatalf("top CFL = %v want 1.2", top)
	}
}

func TestCellFreeLayerNoCells(t *testing.T) {
	sys := quietSystem(t, geometry.Vec3{}, geometry.Vec3{X: 2, Y: 2, Z: 2})
	b, top := CellFreeLayer(sys, nil, 0, 2)
	if b != 2 || top != 2 {
		t.Fatalf("empty CFL = %v / %v", b, top)
	}
}

func TestHematocrit(t *testing.T) {
	sys := quietSystem(t, geometry.Vec3{X: -4, Y: -4, Z: -4}, geometry.Vec3{X: 4, Y: 4, Z: 4})
	m := NewMembrane(sys, geometry.Vec3{}, 1.3, 1, 1, Healthy(), 1.0)
	got := Hematocrit(sys, []*Membrane{m})
	want := m.Volume(sys) / 512.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("hematocrit = %v want %v", got, want)
	}
	if got <= 0 || got >= 1 {
		t.Fatalf("hematocrit out of range: %v", got)
	}
}

func TestCellFreeLayerPersistsUnderFlow(t *testing.T) {
	// A deformable cell in wall-bounded shear flow must keep a positive
	// plasma sleeve — cells do not penetrate or stick to the wall. (Full
	// lift-migration statistics need far longer runs; this asserts the
	// robust part of the Fedosov 2010 physics at unit-test cost.)
	p := dpd.DefaultParams(2)
	p.KBT = 0.1
	p.Dt = 0.0025
	sys := must(dpd.NewSystem(p, geometry.Vec3{X: -4, Y: -4, Z: 0}, geometry.Vec3{X: 4, Y: 4, Z: 5}, [3]bool{true, true, false}))(t)
	sys.Walls = []dpd.Wall{
		&dpd.PlaneWall{Point: geometry.Vec3{}, Norm: geometry.Vec3{Z: 1}},
		&dpd.PlaneWall{Point: geometry.Vec3{Z: 5}, Norm: geometry.Vec3{Z: -1}, WallVel: geometry.Vec3{X: 1}},
	}
	sys.FillRandom(700, 0)
	m := NewMembrane(sys, geometry.Vec3{Z: 1.4}, 0.9, 1, 1, Healthy(), 0.8)
	sys.Run(1600)
	b, top := CellFreeLayer(sys, []*Membrane{m}, 0, 5)
	if b < 0.02 {
		t.Fatalf("cell touched the bottom wall: CFL = %v", b)
	}
	if top < 0.02 {
		t.Fatalf("cell touched the top wall: CFL = %v", top)
	}
	// Membrane integrity under shear.
	if a := m.Area(sys); math.Abs(a-m.TargetArea())/m.TargetArea() > 0.15 {
		t.Fatalf("membrane area drifted under shear: %v vs %v", a, m.TargetArea())
	}
}

// TestSuspensionThickensFluid measures the apparent viscosity of the DPD
// fluid with and without an RBC suspension in a body-force-driven channel:
// blood's "rheological properties ... are mainly determined by the RBC
// properties" (§2) — the suspension must flow slower under the same driving
// pressure gradient, i.e. show a higher apparent viscosity. Cells displace
// the solvent they occupy (constant mixture density), and the stiff
// (diseased) parameter set maximizes the obstruction signal.
func TestSuspensionThickensFluid(t *testing.T) {
	if testing.Short() {
		t.Skip("long DPD run")
	}
	meanFlow := func(withCells bool) float64 {
		p := dpd.DefaultParams(2)
		p.Dt = 0.0025
		p.KBT = 0.4
		p.Seed = 3
		lz := 6.0
		sys := must(dpd.NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 8, Y: 6, Z: lz}, [3]bool{true, true, false}))(t)
		sys.Walls = []dpd.Wall{
			&dpd.PlaneWall{Point: geometry.Vec3{}, Norm: geometry.Vec3{Z: 1}},
			&dpd.PlaneWall{Point: geometry.Vec3{Z: lz}, Norm: geometry.Vec3{Z: -1}},
		}
		sys.External = func(_ float64, _ *dpd.Particle) geometry.Vec3 {
			return geometry.Vec3{X: 0.06}
		}
		sys.FillRandom(int(3*8*6*lz), 0)
		if withCells {
			centers := []geometry.Vec3{
				{X: 1.5, Y: 1.5, Z: 2}, {X: 4, Y: 4.5, Z: 3}, {X: 6.5, Y: 2, Z: 4},
				{X: 2.5, Y: 4.5, Z: 4.2}, {X: 5.5, Y: 1.2, Z: 1.8}, {X: 7, Y: 4.8, Z: 2.6},
			}
			// Displace the solvent the cells occupy.
			const r = 1.0
			kept := sys.Particles[:0]
			for _, pt := range sys.Particles {
				inside := false
				for _, c := range centers {
					if pt.Pos.Dist(c) < r {
						inside = true
						break
					}
				}
				if !inside {
					kept = append(kept, pt)
				}
			}
			sys.Particles = kept
			for _, c := range centers {
				NewMembrane(sys, c, r, 1, 1, Diseased(), 0.9)
			}
		}
		sys.Run(6000) // several viscous times so the profile is developed
		var sum float64
		var n int
		for s := 0; s < 1500; s++ {
			sys.VVStep()
			for i := range sys.Particles {
				pt := &sys.Particles[i]
				if pt.Species != 0 || pt.Pos.Z < 1 || pt.Pos.Z > lz-1 {
					continue
				}
				sum += pt.Vel.X
				n++
			}
		}
		return sum / float64(n)
	}
	plasma := meanFlow(false)
	blood := meanFlow(true)
	t.Logf("mean flow: plasma %.4f, suspension %.4f (apparent viscosity ratio %.2f)",
		plasma, blood, plasma/blood)
	if blood >= plasma {
		t.Fatalf("suspension did not thicken the fluid: %v vs %v", blood, plasma)
	}
	if plasma/blood > 3 {
		t.Fatalf("implausibly large thickening %.2fx at ~8%% hematocrit", plasma/blood)
	}
}
