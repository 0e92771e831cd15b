package core

import (
	"math"
	"testing"

	"nektarg/internal/dpd"
	"nektarg/internal/geometry"
	"nektarg/internal/nektar1d"
	"nektarg/internal/nektar3d"
)

// TestTriSolverIntegration wires all three solver kinds of Figure 2 under
// one metasolver — two coupled NεκTαr-3D patches, a DPD region embedded in
// the second patch, and a NεκTαr-1D fractal tree fed by the second patch's
// outlet — and runs several exchange periods, checking every coupling
// invariant at once:
//
//   - continuum-continuum overlap continuity,
//   - continuum-atomistic interface velocity (Eq. 1 scaled),
//   - 3D outflow = 1D inflow, with the 1D network pressurizing,
//   - all clocks advancing consistently.
func TestTriSolverIntegration(t *testing.T) {
	// Continuum patches.
	mk := func() *nektar3d.Solver {
		g := must(nektar3d.NewGrid(3, 1, 2, 4, 1.5, 1, 1, false, true, false))(t)
		s := must(nektar3d.NewSolver(g, 0.5, 0.01))(t)
		s.Force = func(_, _, _, _ float64) (float64, float64, float64) { return 1, 0, 0 }
		return s
	}
	prof := func(x, y, z float64) (float64, float64, float64) { return z * (1 - z), 0, 0 }
	sa, sb := mk(), mk()
	sa.SetInitial(prof)
	sb.SetInitial(prof)
	bc := func(_, x, y, z float64) (float64, float64, float64) { return prof(x, y, z) }
	sa.VelBC = bc
	sb.VelBC = bc
	pa := NewContinuumPatch("feed", sa, geometry.Vec3{})
	pb := NewContinuumPatch("distal", sb, geometry.Vec3{X: 1})

	// DPD region inside patch B.
	params := dpd.DefaultParams(1)
	params.Dt = 0.005
	sys := must(dpd.NewSystem(params, geometry.Vec3{}, geometry.Vec3{X: 10, Y: 10, Z: 10}, [3]bool{false, true, true}))(t)
	sys.FillRandom(1500, 0)
	inflow := &dpd.FluxBC{Axis: 0, AtMax: false, Rho: 3}
	outflow := &dpd.FluxBC{Axis: 0, AtMax: true, Rho: 3}
	sys.Inflows = []*dpd.FluxBC{inflow, outflow}
	region := &AtomisticRegion{
		Name: "insert", Sys: sys,
		Origin:        geometry.Vec3{X: 1.6, Y: 0.4, Z: 0.4},
		NSUnits:       Units{L: 1e-3, Nu: 0.5},
		DPDUnits:      Units{L: 2e-5, Nu: 0.2},
		VelocityBoost: 200,
		Interfaces: []*geometry.Surface{geometry.PlanarRect("g", geometry.Vec3{},
			geometry.Vec3{Y: 10}, geometry.Vec3{Z: 10}, 2, 2)},
		FluxFaces: []*dpd.FluxBC{inflow},
	}
	for i := range sys.Particles {
		sys.Particles[i].Vel.X += 0.25 * VelocityScale(region.NSUnits, region.DPDUnits) * region.VelocityBoost
	}

	// 1D peripheral tree on patch B's outlet.
	spec := nektar1d.DefaultTreeSpec(2)
	spec.NodesPerSegment = 21
	net, inlet, err := nektar1d.BuildFractalTree(spec)
	if err != nil {
		t.Fatal(err)
	}
	to1d, err := NewOutletTo1D(pb, "x1", net, inlet, 6)
	if err != nil {
		t.Fatal(err)
	}

	meta := NewMetasolver()
	meta.Patches = []*ContinuumPatch{pa, pb}
	meta.Couplings = []*PatchCoupling{
		{Donor: pa, Receiver: pb, Face: "x0"},
		{Donor: pb, Receiver: pa, Face: "x1"},
	}
	meta.Atomistic = []*AtomisticRegion{region}

	dt1D := 5e-5
	var lastQ, lastP float64
	for e := 0; e < 3; e++ {
		if err := meta.Advance(1); err != nil {
			t.Fatal(err)
		}
		lastQ, lastP, err = to1d.Exchange(dt1D)
		if err != nil {
			t.Fatal(err)
		}
	}

	// (1) Continuum-continuum continuity over the overlap.
	var rms float64
	var n int
	for _, x := range []float64{1.1, 1.25, 1.4} {
		for _, z := range []float64{0.3, 0.6} {
			g := geometry.Vec3{X: x, Y: 0.5, Z: z}
			ua, _, _ := pa.SampleVelocity(g)
			ub, _, _ := pb.SampleVelocity(g)
			rms += (ua - ub) * (ua - ub)
			n++
		}
	}
	if cc := math.Sqrt(rms / float64(n)); cc > 0.01 {
		t.Errorf("continuum-continuum mismatch %g", cc)
	}

	// (2) Continuum-atomistic continuity within DPD noise plus the
	// development transient (the exact Eq. 1 scaling is unit-tested in
	// TestAtomisticCouplingScalesVelocity; here we check the plumbing: the
	// mismatch must be of the order of the velocity scale, not of the
	// unboosted or unscaled magnitudes, which would be off by 200x).
	ca, cn := meta.InterfaceContinuity(region, 3)
	scale := 0.25 * VelocityScale(region.NSUnits, region.DPDUnits) * region.VelocityBoost
	if cn == 0 || ca > 2*scale {
		t.Errorf("continuum-atomistic mismatch %g over %d probes (scale %g)", ca, cn, scale)
	}

	// (3) 1D side fed and pressurized.
	if math.Abs(lastQ-1.0) > 0.1 { // Q = 1/6 * scale 6
		t.Errorf("1D inflow %v want ~1", lastQ)
	}
	if lastP <= 0 {
		t.Errorf("1D network not pressurized: %v", lastP)
	}

	// (4) Clocks: 3 exchanges x 10 NS steps x dt 0.01 = 0.3; DPD advanced
	// 3 x 200 x 0.005 = 3.0 DPD time units; 1D tracked the 3D clock.
	if math.Abs(sa.Time-0.3) > 1e-12 || math.Abs(sb.Time-0.3) > 1e-12 {
		t.Errorf("continuum clocks: %v %v", sa.Time, sb.Time)
	}
	if math.Abs(sys.Time-3.0) > 1e-9 {
		t.Errorf("DPD clock: %v", sys.Time)
	}
	if math.Abs(net.Time-0.3) > dt1D {
		t.Errorf("1D clock: %v", net.Time)
	}
}
