package rbc

import (
	"math"
	"testing"

	"nektarg/internal/dpd"
	"nektarg/internal/geometry"
)

func TestIcosphereTopology(t *testing.T) {
	for subdiv := 0; subdiv <= 2; subdiv++ {
		m := Icosphere(geometry.Vec3{}, 1, subdiv)
		v := len(m.Verts)
		f := len(m.Tris)
		e := len(m.Edges())
		// Euler characteristic of a sphere: V - E + F = 2.
		if v-e+f != 2 {
			t.Fatalf("subdiv %d: V-E+F = %d", subdiv, v-e+f)
		}
		if 2*e != 3*f {
			t.Fatalf("subdiv %d: 2E=%d != 3F=%d", subdiv, 2*e, 3*f)
		}
		// Every interior edge must have exactly two triangles.
		if got := len(m.EdgeTrianglePairs()); got != e {
			t.Fatalf("subdiv %d: %d bend pairs for %d edges", subdiv, got, e)
		}
	}
	if got := len(Icosphere(geometry.Vec3{}, 1, 1).Verts); got != 42 {
		t.Fatalf("subdiv 1 verts = %d", got)
	}
}

func TestIcosphereGeometryConverges(t *testing.T) {
	r := 1.5
	m := Icosphere(geometry.Vec3{X: 1}, r, 3)
	area := m.Area(m.Verts)
	vol := math.Abs(m.Volume(m.Verts))
	if math.Abs(area-4*math.Pi*r*r)/(4*math.Pi*r*r) > 0.02 {
		t.Fatalf("area = %v", area)
	}
	if math.Abs(vol-4*math.Pi*r*r*r/3)/(4*math.Pi*r*r*r/3) > 0.03 {
		t.Fatalf("volume = %v", vol)
	}
}

func TestIcosphereRadius(t *testing.T) {
	c := geometry.Vec3{X: 1, Y: -2, Z: 0.5}
	m := Icosphere(c, 2, 2)
	for _, v := range m.Verts {
		if math.Abs(v.Dist(c)-2) > 1e-12 {
			t.Fatalf("vertex at distance %v", v.Dist(c))
		}
	}
}

func quietSystem(lo, hi geometry.Vec3) *dpd.System {
	p := dpd.DefaultParams(2)
	p.KBT = 0.02 // nearly athermal for mechanics checks
	p.Gamma = 4.5
	p.Dt = 0.002
	return dpd.NewSystem(p, lo, hi, [3]bool{true, true, true})
}

func TestMembraneConservesAreaAndVolume(t *testing.T) {
	sys := quietSystem(geometry.Vec3{X: -4, Y: -4, Z: -4}, geometry.Vec3{X: 4, Y: 4, Z: 4})
	m := NewMembrane(sys, geometry.Vec3{}, 1.3, 1, 1, Healthy(), 1.0)
	sys.Run(500)
	area := m.Area(sys)
	vol := m.Volume(sys)
	if math.Abs(area-m.TargetArea())/m.TargetArea() > 0.05 {
		t.Fatalf("area drifted: %v vs %v", area, m.TargetArea())
	}
	if math.Abs(vol-m.TargetVolume())/m.TargetVolume() > 0.05 {
		t.Fatalf("volume drifted: %v vs %v", vol, m.TargetVolume())
	}
}

func TestMembraneDeflatesToReducedVolume(t *testing.T) {
	sys := quietSystem(geometry.Vec3{X: -4, Y: -4, Z: -4}, geometry.Vec3{X: 4, Y: 4, Z: 4})
	m := NewMembrane(sys, geometry.Vec3{}, 1.3, 1, 1, Healthy(), 0.64)
	v0 := m.Volume(sys)
	sys.Run(1500)
	v1 := m.Volume(sys)
	if v1 >= 0.8*v0 {
		t.Fatalf("membrane did not deflate: %v -> %v (target %v)", v0, v1, m.TargetVolume())
	}
	if math.Abs(v1-m.TargetVolume())/m.TargetVolume() > 0.1 {
		t.Fatalf("volume %v missed target %v", v1, m.TargetVolume())
	}
	// Area must stay near the sphere area (biconcave shape preserves area).
	if a := m.Area(sys); math.Abs(a-m.TargetArea())/m.TargetArea() > 0.08 {
		t.Fatalf("area %v drifted from %v", a, m.TargetArea())
	}
}

// stretch applies opposite forces to the two x-extreme vertex groups and
// returns the relative x-elongation — the optical-tweezers protocol used to
// validate RBC models.
func stretch(t *testing.T, st Stiffness, force float64) float64 {
	t.Helper()
	sys := quietSystem(geometry.Vec3{X: -5, Y: -5, Z: -5}, geometry.Vec3{X: 5, Y: 5, Z: 5})
	m := NewMembrane(sys, geometry.Vec3{}, 1.3, 1, 1, st, 1.0)
	ext0 := m.Extent(sys).X

	// The 10% most extreme vertices on each side carry the load.
	var left, right []int
	for k, i := range m.Idx {
		x := sys.Particles[i].Pos.X
		if x < -0.8*1.3 {
			left = append(left, k)
		}
		if x > 0.8*1.3 {
			right = append(right, k)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		t.Fatal("no pole vertices found")
	}
	sys.External = func(_ float64, p *dpd.Particle) geometry.Vec3 {
		for _, k := range left {
			if m.Idx[k] == int(p.ID) {
				return geometry.Vec3{X: -force / float64(len(left))}
			}
		}
		for _, k := range right {
			if m.Idx[k] == int(p.ID) {
				return geometry.Vec3{X: force / float64(len(right))}
			}
		}
		return geometry.Vec3{}
	}
	sys.Run(800)
	return (m.Extent(sys).X - ext0) / ext0
}

func TestDiseasedCellStiffer(t *testing.T) {
	healthy := stretch(t, Healthy(), 20)
	diseased := stretch(t, Diseased(), 20)
	if healthy <= 0.02 {
		t.Fatalf("healthy cell barely stretched: %v", healthy)
	}
	if diseased >= 0.7*healthy {
		t.Fatalf("diseased (%v) not appreciably stiffer than healthy (%v)", diseased, healthy)
	}
}

func TestMembraneForcesAreInternal(t *testing.T) {
	// Bonded membrane forces must not impart net momentum.
	sys := quietSystem(geometry.Vec3{X: -4, Y: -4, Z: -4}, geometry.Vec3{X: 4, Y: 4, Z: 4})
	m := NewMembrane(sys, geometry.Vec3{}, 1.3, 1, 1, Healthy(), 0.8)
	// Perturb shape so forces are non-trivial.
	for _, i := range m.Idx {
		p := &sys.Particles[i]
		p.Pos = p.Pos.Add(geometry.Vec3{X: 0.05 * math.Sin(float64(i)), Y: 0.04 * math.Cos(float64(2*i))})
	}
	for i := range sys.Particles {
		sys.Particles[i].F = geometry.Vec3{}
	}
	m.AddForces(sys)
	var net geometry.Vec3
	var mag float64
	for i := range sys.Particles {
		net = net.Add(sys.Particles[i].F)
		mag += sys.Particles[i].F.Norm()
	}
	if mag == 0 {
		t.Fatal("no forces generated")
	}
	if net.Norm() > 1e-6*mag {
		t.Fatalf("net bonded force %v vs magnitude %v", net.Norm(), mag)
	}
}

// TestMembraneAcrossPeriodicFace: a cell carried through a periodic face has
// its vertices wrapped to both ends of the box. Its area, volume and bonded
// forces must be those of the same cell mid-box, not of a surface stretched
// across the domain.
func TestMembraneAcrossPeriodicFace(t *testing.T) {
	build := func(cx float64) (*dpd.System, *Membrane) {
		sys := quietSystem(geometry.Vec3{}, geometry.Vec3{X: 8, Y: 6, Z: 6})
		m := NewMembrane(sys, geometry.Vec3{X: cx, Y: 3, Z: 3}, 1.3, 1, 1, Healthy(), 0.8)
		for _, i := range m.Idx {
			p := &sys.Particles[i]
			p.Pos = p.Pos.Add(geometry.Vec3{X: 0.05 * math.Sin(float64(i)), Y: 0.04 * math.Cos(float64(2*i))})
			p.Pos.X = math.Mod(p.Pos.X+8, 8)
		}
		m.AddForces(sys)
		return sys, m
	}
	mid, midCell := build(4)
	edge, edgeCell := build(0.2)
	var left, right int
	for _, i := range edgeCell.Idx {
		if edge.Particles[i].Pos.X < 4 {
			left++
		} else {
			right++
		}
	}
	if left == 0 || right == 0 {
		t.Fatalf("cell does not straddle the face: %d vertices left, %d right", left, right)
	}
	if a, b := edgeCell.Area(edge), midCell.Area(mid); math.Abs(a-b) > 1e-9*b {
		t.Errorf("area %v across the face, %v mid-box", a, b)
	}
	if a, b := edgeCell.Volume(edge), midCell.Volume(mid); math.Abs(a-b) > 1e-9*b {
		t.Errorf("volume %v across the face, %v mid-box", a, b)
	}
	for k := range midCell.Idx {
		fe, fm := edge.Particles[edgeCell.Idx[k]].F, mid.Particles[midCell.Idx[k]].F
		if fe.Sub(fm).Norm() > 1e-6*(1+fm.Norm()) {
			t.Fatalf("vertex %d: force %v across the face, %v mid-box", k, fe, fm)
		}
	}
}

func TestNewMembranePanicsOnBadReducedVolume(t *testing.T) {
	sys := quietSystem(geometry.Vec3{X: -4, Y: -4, Z: -4}, geometry.Vec3{X: 4, Y: 4, Z: 4})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMembrane(sys, geometry.Vec3{}, 1, 1, 1, Healthy(), 0)
}
