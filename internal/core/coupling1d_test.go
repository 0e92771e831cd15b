package core

import (
	"math"
	"testing"

	"nektarg/internal/geometry"
	"nektarg/internal/nektar1d"
	"nektarg/internal/nektar3d"
)

func TestFaceQuadratureIntegratesArea(t *testing.T) {
	g := must(nektar3d.NewGrid(2, 3, 2, 4, 1, 2, 3, false, false, false))(t)
	for _, tc := range []struct {
		face string
		area float64
	}{
		{"x0", 2 * 3}, {"x1", 2 * 3},
		{"y0", 1 * 3}, {"y1", 1 * 3},
		{"z0", 1 * 2}, {"z1", 1 * 2},
	} {
		w := g.FaceQuadrature(tc.face)
		var s float64
		for _, v := range w {
			s += v
		}
		if math.Abs(s-tc.area) > 1e-12 {
			t.Fatalf("face %s: weights sum to %v want %v", tc.face, s, tc.area)
		}
		if len(w) != len(g.FacePoints(tc.face)) {
			t.Fatalf("face %s: %d weights for %d points", tc.face, len(w), len(g.FacePoints(tc.face)))
		}
	}
}

func TestFaceFlowMatchesAnalytic(t *testing.T) {
	// Poiseuille profile u = z(1-z) on a unit square cross-section:
	// Q = ∫∫ z(1-z) dy dz = 1/6.
	g := must(nektar3d.NewGrid(2, 1, 2, 5, 1, 1, 1, false, true, false))(t)
	s := must(nektar3d.NewSolver(g, 0.5, 0.01))(t)
	s.SetInitial(func(x, y, z float64) (float64, float64, float64) {
		return z * (1 - z), 0, 0
	})
	patch := NewContinuumPatch("p", s, geometry.Vec3{})

	net := &nektar1d.Network{}
	seg := net.AddSegment(nektar1d.NewSegment("peripheral", 5, 51, 0.5, 4e4, 1.06, 8))
	inlet := &nektar1d.Inlet{Seg: seg, Q: func(float64) float64 { return 0 }}
	net.Inlets = append(net.Inlets, inlet)
	net.Outlets = append(net.Outlets, &nektar1d.Outlet{Seg: seg, WK: nektar1d.NewWindkessel(100, 1e-4)})

	c, err := NewOutletTo1D(patch, "x1", net, inlet, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := c.FaceFlow()
	if math.Abs(q-1.0/6) > 1e-10 {
		t.Fatalf("face flow = %v want %v", q, 1.0/6)
	}
	// Outflow through x0 has the opposite sign convention (flow leaves in
	// -x there, but the velocity is +x, so the outward flow is negative).
	c0, err := NewOutletTo1D(patch, "x0", net, inlet, 1)
	if err != nil {
		t.Fatal(err)
	}
	if q0 := c0.FaceFlow(); math.Abs(q0+1.0/6) > 1e-10 {
		t.Fatalf("x0 outward flow = %v want %v", q0, -1.0/6)
	}
}

func TestOutletTo1DDrivesNetwork(t *testing.T) {
	// A steady 3D outflow must charge the 1D network: pressure at the 1D
	// inlet rises from 0 and the inlet flow equals the 3D face flow.
	g := must(nektar3d.NewGrid(2, 1, 2, 4, 1, 1, 1, false, true, false))(t)
	s := must(nektar3d.NewSolver(g, 0.5, 0.01))(t)
	s.Force = func(_, _, _, _ float64) (float64, float64, float64) { return 1, 0, 0 }
	s.SetInitial(func(x, y, z float64) (float64, float64, float64) {
		return z * (1 - z), 0, 0
	})
	s.VelBC = func(_, x, y, z float64) (float64, float64, float64) {
		return z * (1 - z), 0, 0
	}
	patch := NewContinuumPatch("p", s, geometry.Vec3{})

	net := &nektar1d.Network{}
	seg := net.AddSegment(nektar1d.NewSegment("peripheral", 5, 51, 0.5, 4e4, 1.06, 8))
	inlet := &nektar1d.Inlet{Seg: seg}
	net.Inlets = append(net.Inlets, inlet)
	net.Outlets = append(net.Outlets, &nektar1d.Outlet{Seg: seg, WK: nektar1d.NewWindkessel(100, 1e-4)})
	c, err := NewOutletTo1D(patch, "x1", net, inlet, 6) // scale Q to ~1
	if err != nil {
		t.Fatal(err)
	}

	dt1D := 2e-4
	var lastP float64
	for e := 0; e < 5; e++ {
		if err := s.Run(10); err != nil {
			t.Fatal(err)
		}
		q, p, err := c.Exchange(dt1D)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(q-1.0) > 0.05 {
			t.Fatalf("coupled flow = %v want ~1", q)
		}
		lastP = p
	}
	if lastP <= 0 {
		t.Fatalf("1D inlet pressure did not rise: %v", lastP)
	}
	// The 1D network time must track the 3D time.
	if math.Abs(net.Time-s.Time) > dt1D {
		t.Fatalf("network time %v vs solver time %v", net.Time, s.Time)
	}
	// Flow actually entered the segment.
	if seg.Flow(0) <= 0 {
		t.Fatalf("no inflow at 1D inlet: %v", seg.Flow(0))
	}
}

func TestNewOutletTo1DRejectsForeignInlet(t *testing.T) {
	g := must(nektar3d.NewGrid(1, 1, 1, 2, 1, 1, 1, false, true, true))(t)
	s := must(nektar3d.NewSolver(g, 0.5, 0.01))(t)
	patch := NewContinuumPatch("p", s, geometry.Vec3{})
	net := &nektar1d.Network{}
	seg := nektar1d.NewSegment("x", 1, 11, 0.5, 4e4, 1.06, 0)
	net.AddSegment(seg)
	stray := &nektar1d.Inlet{Seg: seg}
	if _, err := NewOutletTo1D(patch, "x1", net, stray, 1); err == nil {
		t.Fatal("expected foreign-inlet error")
	}
}
