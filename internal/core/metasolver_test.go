package core

import (
	"math"
	"strings"
	"testing"

	"nektarg/internal/dpd"
	"nektarg/internal/geometry"
	"nektarg/internal/mci"
	"nektarg/internal/mpi"
	"nektarg/internal/nektar3d"
)

// TestCoupledFaceOverFallback steps the receiver of an exchange: the
// coupled face carries the donor's trace and every other boundary node the
// solver's own VelBC, bit for bit.
func TestCoupledFaceOverFallback(t *testing.T) {
	m, pa, pb := twoPatchChannel(t)
	trace := donorTrace(t, pa, pb, "x0")
	if err := m.ExchangeInterfaceConditions(); err != nil {
		t.Fatal(err)
	}
	if err := pb.Solver.Step(); err != nil {
		t.Fatal(err)
	}
	coupled := map[int]bool{}
	for _, n := range must(pb.Solver.G.FaceNodes("x0"))(t) {
		coupled[n] = true
	}
	requireFace(t, pb, "x0", trace)
	g := pb.Solver.G
	checked := 0
	for _, face := range []string{"x1", "z0", "z1"} {
		for _, n := range must(g.FaceNodes(face))(t) {
			if coupled[n] {
				continue
			}
			i, j, k := n%g.Nx, n/g.Nx%g.Ny, n/(g.Nx*g.Ny)
			u, v, w := pb.Solver.VelBC(pb.Solver.Time, g.X[i], g.Y[j], g.Z[k])
			got := [3]float64{pb.Solver.U[n], pb.Solver.V[n], pb.Solver.W[n]}
			for c, want := range [3]float64{u, v, w} {
				if math.Float64bits(got[c]) != math.Float64bits(want) {
					t.Fatalf("%s node %d component %d = %v, VelBC gives %v", face, n, c, got[c], want)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no boundary node off the coupled face was checked")
	}
}

// donorTrace samples donor at the global points of receiver's face, in
// FacePoints order: the trace an exchange imposes there.
func donorTrace(t *testing.T, donor, receiver *ContinuumPatch, face string) [3][]float64 {
	t.Helper()
	var tr [3][]float64
	for _, lp := range receiver.Solver.G.FacePoints(face) {
		u, v, w := donor.SampleVelocity(lp.Add(receiver.Origin))
		tr[0], tr[1], tr[2] = append(tr[0], u), append(tr[1], v), append(tr[2], w)
	}
	return tr
}

// requireFace requires the velocity on p's face to be trace, bit for bit:
// after a step, a Dirichlet node holds exactly the value imposed on it.
func requireFace(t *testing.T, p *ContinuumPatch, face string, trace [3][]float64) {
	t.Helper()
	s := p.Solver
	for i, n := range must(s.G.FaceNodes(face))(t) {
		got := [3]float64{s.U[n], s.V[n], s.W[n]}
		for c := range got {
			if math.Float64bits(got[c]) != math.Float64bits(trace[c][i]) {
				t.Fatalf("%s %s node %d component %d = %v, trace %v", p.Name, face, n, c, got[c], trace[c][i])
			}
		}
	}
}

// TestVelBCSetAfterPatchKeepsTrace assigns VelBC after NewContinuumPatch:
// the physical boundaries change, and the coupled face still carries the
// donor's trace after an exchange and a step.
func TestVelBCSetAfterPatchKeepsTrace(t *testing.T) {
	m, pa, pb := twoPatchChannel(t)
	pb.Solver.VelBC = func(_, _, _, _ float64) (float64, float64, float64) { return 0, 0, 0 }
	trace := donorTrace(t, pa, pb, "x0")
	if err := m.ExchangeInterfaceConditions(); err != nil {
		t.Fatal(err)
	}
	if err := pb.Solver.Step(); err != nil {
		t.Fatal(err)
	}
	requireFace(t, pb, "x0", trace)
}

// twoPatchChannel builds two overlapping channel patches: patch A spans
// x ∈ [0, 1.5], patch B x ∈ [1, 2.5] (global), both with walls at z=0,1 and
// a body force driving Poiseuille flow in x. B's inlet (x0) is fed by A and
// A's outlet (x1) by B.
func twoPatchChannel(t *testing.T) (*Metasolver, *ContinuumPatch, *ContinuumPatch) {
	t.Helper()
	mk := func() *nektar3d.Solver {
		g := must(nektar3d.NewGrid(3, 1, 2, 4, 1.5, 1, 1, false, true, false))(t)
		s := must(nektar3d.NewSolver(g, 0.5, 0.01))(t)
		s.Force = func(_, _, _, _ float64) (float64, float64, float64) { return 1, 0, 0 }
		return s
	}
	sa := mk()
	sb := mk()
	// Seed both with the analytic Poiseuille profile so coupling starts
	// consistent.
	prof := func(x, y, z float64) (float64, float64, float64) {
		return z * (1 - z), 0, 0
	}
	sa.SetInitial(prof)
	sb.SetInitial(prof)
	// Physical BCs: Dirichlet everywhere (x faces get the analytic profile,
	// z walls no-slip); the coupling overrides the coupled faces.
	bc := func(_, x, y, z float64) (float64, float64, float64) { return prof(x, y, z) }
	sa.VelBC = bc
	sb.VelBC = bc
	pa := NewContinuumPatch("A", sa, geometry.Vec3{})
	pb := NewContinuumPatch("B", sb, geometry.Vec3{X: 1})
	m := NewMetasolver()
	m.Patches = []*ContinuumPatch{pa, pb}
	m.Couplings = []*PatchCoupling{
		{Donor: pa, Receiver: pb, Face: "x0"},
		{Donor: pb, Receiver: pa, Face: "x1"},
	}
	return m, pa, pb
}

func TestPatchCouplingTransfersTrace(t *testing.T) {
	m, pa, pb := twoPatchChannel(t)
	traceB := donorTrace(t, pa, pb, "x0")
	traceA := donorTrace(t, pb, pa, "x1")
	if err := m.ExchangeInterfaceConditions(); err != nil {
		t.Fatal(err)
	}
	// Each receiver's coupled face must now carry its donor's velocity
	// sampled at those global points.
	for _, c := range []struct {
		p     *ContinuumPatch
		face  string
		trace [3][]float64
	}{{pb, "x0", traceB}, {pa, "x1", traceA}} {
		if err := c.p.Solver.Step(); err != nil {
			t.Fatal(err)
		}
		requireFace(t, c.p, c.face, c.trace)
	}
}

func TestTwoPatchContinuity(t *testing.T) {
	// Figure 9, continuum-continuum: after several coupled exchange
	// periods the two patches agree on the overlap region.
	m, pa, pb := twoPatchChannel(t)
	if err := m.Advance(4); err != nil {
		t.Fatal(err)
	}
	// Compare velocity on a probe grid inside the overlap x ∈ [1.1, 1.4].
	var rms float64
	var n int
	for _, x := range []float64{1.1, 1.2, 1.3, 1.4} {
		for _, z := range []float64{0.25, 0.5, 0.75} {
			g := geometry.Vec3{X: x, Y: 0.5, Z: z}
			ua, va, wa := pa.SampleVelocity(g)
			ub, vb, wb := pb.SampleVelocity(g)
			d := geometry.Vec3{X: ua - ub, Y: va - vb, Z: wa - wb}
			rms += d.Norm2()
			n++
		}
	}
	rms = math.Sqrt(rms / float64(n))
	// Velocity magnitude is ~0.25; the interface error must be far below.
	if rms > 0.01 {
		t.Fatalf("overlap velocity mismatch rms = %g", rms)
	}
}

func TestAtomisticCouplingScalesVelocity(t *testing.T) {
	// A continuum patch with uniform velocity (via initial condition) feeds
	// a DPD box; the flux-face profile must be the Eq. 1-scaled velocity.
	g := must(nektar3d.NewGrid(2, 2, 2, 3, 1, 1, 1, true, true, true))(t)
	s := must(nektar3d.NewSolver(g, 0.1, 0.01))(t)
	s.SetInitial(func(_, _, _ float64) (float64, float64, float64) { return 0.4, 0, 0 })
	patch := NewContinuumPatch("C", s, geometry.Vec3{})

	p := dpd.DefaultParams(1)
	sys := must(dpd.NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 10, Y: 10, Z: 10}, [3]bool{false, true, true}))(t)
	flux := &dpd.FluxBC{Axis: 0, AtMax: false, Rho: 3}
	sys.Inflows = []*dpd.FluxBC{flux}

	nsU := Units{L: 1e-3, Nu: 0.1}
	dpU := Units{L: 5e-5, Nu: 0.1}
	surf := geometry.PlanarRect("gamma1", geometry.Vec3{}, geometry.Vec3{Y: 10}, geometry.Vec3{Z: 10}, 2, 2)
	region := &AtomisticRegion{
		Name: "omegaA", Sys: sys,
		Origin:  geometry.Vec3{X: 0.2, Y: 0.2, Z: 0.2},
		NSUnits: nsU, DPDUnits: dpU,
		Interfaces: []*geometry.Surface{surf},
		FluxFaces:  []*dpd.FluxBC{flux},
	}
	m := NewMetasolver()
	m.Patches = []*ContinuumPatch{patch}
	m.Atomistic = []*AtomisticRegion{region}
	if err := m.ExchangeInterfaceConditions(); err != nil {
		t.Fatal(err)
	}
	if flux.Vel == nil {
		t.Fatal("flux profile not installed")
	}
	got := flux.Vel(geometry.Vec3{Y: 5, Z: 5})
	want := 0.4 * VelocityScale(nsU, dpU)
	if math.Abs(got.X-want) > 1e-12 {
		t.Fatalf("scaled velocity = %v want %v", got.X, want)
	}
}

func TestDPDGlobalRoundTrip(t *testing.T) {
	region := &AtomisticRegion{
		Sys: must(dpd.NewSystem(dpd.DefaultParams(1),
			geometry.Vec3{X: -1, Y: -1, Z: -1}, geometry.Vec3{X: 1, Y: 1, Z: 1},
			[3]bool{true, true, true}))(t),
		Origin:   geometry.Vec3{X: 3, Y: 4, Z: 5},
		NSUnits:  Units{L: 1e-3, Nu: 0.1},
		DPDUnits: Units{L: 5e-6, Nu: 0.1},
	}
	p := geometry.Vec3{X: 0.3, Y: -0.7, Z: 0.1}
	want := region.Origin.Add(p.Sub(region.Sys.Lo).Scale(5e-6 / 1e-3))
	if got := region.DPDToGlobal(p); got.Sub(want).Norm() > 1e-12 {
		t.Fatalf("DPDToGlobal(%v) = %v, want %v", p, got, want)
	}
	// The DPD box spans 2 DPD units = 2*(5e-6/1e-3) = 0.01 NS units.
	lo := region.DPDToGlobal(region.Sys.Lo)
	hi := region.DPDToGlobal(region.Sys.Hi)
	if math.Abs(hi.Sub(lo).X-0.01) > 1e-12 {
		t.Fatalf("mapped box size = %v", hi.Sub(lo).X)
	}
}

func TestOwnershipDiscoveryOverMPI(t *testing.T) {
	// 3 tasks: rank 0 = atomistic root, ranks 1, 2 = continuum roots with
	// domains [0,1]³ and [1,2]x[0,1]². Centroids at x=0.5 (owned by 1),
	// x=1.5 (owned by 2), x=1.0 (both: lowest root wins), x=5 (orphan).
	err := mpi.Run(3, func(w *mpi.Comm) {
		centroids := []geometry.Vec3{
			{X: 0.5, Y: 0.5, Z: 0.5},
			{X: 1.5, Y: 0.5, Z: 0.5},
			{X: 1.0, Y: 0.5, Z: 0.5},
			{X: 5, Y: 5, Z: 5},
		}
		switch w.Rank() {
		case 0:
			owners, orphans := DiscoverOwners(w, centroids, []int{1, 2})
			if got := owners[1]; len(got) != 2 || got[0] != 0 || got[1] != 2 {
				t.Errorf("root 1 owns %v", got)
			}
			if got := owners[2]; len(got) != 1 || got[0] != 1 {
				t.Errorf("root 2 owns %v", got)
			}
			if len(orphans) != 1 || orphans[0] != 3 {
				t.Errorf("orphans = %v", orphans)
			}
		default:
			x0 := float64(w.Rank() - 1)
			RespondOwnership(w, 0, func(p geometry.Vec3) bool {
				return p.X >= x0 && p.X <= x0+1 && p.Y >= 0 && p.Y <= 1 && p.Z >= 0 && p.Z <= 1
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDistributedPatchExchange ties MCI and the patch coupling together: two
// L3 task groups exchange a face trace through the 3-step L4 protocol and
// both sides see the peer's data.
func TestDistributedPatchExchange(t *testing.T) {
	cfg := mci.Config{Tasks: []mci.TaskSpec{{Name: "patchA", Ranks: 3}, {Name: "patchB", Ranks: 3}}}
	err := mpi.Run(6, func(w *mpi.Comm) {
		h, err := mci.Build(w, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		// L3 ranks 0 and 2 of each patch hold interface partitions.
		member := h.L3.Rank() != 1
		g, err := mci.NewInterfaceGroup(h, "iface", member)
		if err != nil {
			t.Error(err)
			return
		}
		if !member {
			return
		}
		// Each member contributes a 3-value trace chunk tagged by task.
		local := []float64{float64(h.Task*100 + h.L3.Rank()), 1, 2}
		peerRoot := map[int]int{0: 3, 1: 0}[h.Task]
		got := g.Exchange(h.World, peerRoot, g.Salt(), local, []int{3, 3})
		// L4 rank 0 receives the peer's L3-rank-0 chunk, rank 1 the
		// L3-rank-2 chunk.
		peerTask := 1 - h.Task
		wantLead := float64(peerTask * 100)
		if g.L4.Rank() == 1 {
			wantLead = float64(peerTask*100 + 2)
		}
		if len(got) != 3 || got[0] != wantLead {
			t.Errorf("task %d L4 %d got %v want lead %v", h.Task, g.L4.Rank(), got, wantLead)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMetasolverReportsBadGeometry(t *testing.T) {
	// A receiver face outside the donor must produce an error, not silent
	// garbage.
	g := must(nektar3d.NewGrid(1, 1, 1, 2, 1, 1, 1, false, true, true))(t)
	sa := must(nektar3d.NewSolver(g, 0.1, 0.01))(t)
	sb := must(nektar3d.NewSolver(g, 0.1, 0.01))(t)
	pa := NewContinuumPatch("A", sa, geometry.Vec3{})
	pb := NewContinuumPatch("B", sb, geometry.Vec3{X: 5}) // no overlap
	m := NewMetasolver()
	m.Patches = []*ContinuumPatch{pa, pb}
	m.Couplings = []*PatchCoupling{{Donor: pa, Receiver: pb, Face: "x0"}}
	if err := m.ExchangeInterfaceConditions(); err == nil {
		t.Fatal("expected geometry error")
	}
}

func TestMultipleAtomisticRegions(t *testing.T) {
	// "The methodology ... allows placement of several overlapping or
	// non-overlapping atomistic domains coupled to one or several continuum
	// domains": two DPD regions embedded in one patch, each receiving its
	// own scaled trace.
	g := must(nektar3d.NewGrid(2, 2, 2, 3, 1, 1, 1, true, true, true))(t)
	s := must(nektar3d.NewSolver(g, 0.1, 0.01))(t)
	s.SetInitial(func(x, y, z float64) (float64, float64, float64) {
		return 0.3 + 0.2*z, 0, 0 // z-dependent so the two regions differ
	})
	patch := NewContinuumPatch("C", s, geometry.Vec3{})

	mkRegion := func(name string, origin geometry.Vec3) (*AtomisticRegion, *dpd.FluxBC) {
		p := dpd.DefaultParams(1)
		sys := must(dpd.NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 5, Y: 5, Z: 5}, [3]bool{false, true, true}))(t)
		flux := &dpd.FluxBC{Axis: 0, AtMax: false, Rho: 3}
		sys.Inflows = []*dpd.FluxBC{flux}
		return &AtomisticRegion{
			Name: name, Sys: sys, Origin: origin,
			NSUnits:  Units{L: 1e-3, Nu: 0.1},
			DPDUnits: Units{L: 2e-5, Nu: 0.1},
			Interfaces: []*geometry.Surface{geometry.PlanarRect("g", geometry.Vec3{},
				geometry.Vec3{Y: 5}, geometry.Vec3{Z: 5}, 2, 2)},
			FluxFaces: []*dpd.FluxBC{flux},
		}, flux
	}
	low, lowFlux := mkRegion("low", geometry.Vec3{X: 0.2, Y: 0.2, Z: 0.1})
	high, highFlux := mkRegion("high", geometry.Vec3{X: 0.2, Y: 0.2, Z: 0.8})

	m := NewMetasolver()
	m.Patches = []*ContinuumPatch{patch}
	m.Atomistic = []*AtomisticRegion{low, high}
	if err := m.ExchangeInterfaceConditions(); err != nil {
		t.Fatal(err)
	}
	vl := lowFlux.Vel(geometry.Vec3{Y: 2.5, Z: 2.5})
	vh := highFlux.Vel(geometry.Vec3{Y: 2.5, Z: 2.5})
	if vl.X <= 0 || vh.X <= 0 {
		t.Fatalf("profiles not installed: %v %v", vl, vh)
	}
	// The higher region sits in faster flow (u grows with z).
	if vh.X <= vl.X {
		t.Fatalf("regions received identical traces: low %v, high %v", vl.X, vh.X)
	}
}

func TestExchangeReportsOrphanRegion(t *testing.T) {
	// A region whose interface lies outside every continuum patch must
	// produce a descriptive error, not silent garbage.
	// Non-periodic patch: a fully periodic one would own every point in
	// space by construction.
	g := must(nektar3d.NewGrid(1, 1, 1, 2, 1, 1, 1, false, false, false))(t)
	s := must(nektar3d.NewSolver(g, 0.1, 0.01))(t)
	patch := NewContinuumPatch("C", s, geometry.Vec3{})
	p := dpd.DefaultParams(1)
	sys := must(dpd.NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 2, Y: 2, Z: 2}, [3]bool{false, true, true}))(t)
	flux := &dpd.FluxBC{Axis: 0, AtMax: false, Rho: 3}
	sys.Inflows = []*dpd.FluxBC{flux}
	region := &AtomisticRegion{
		Name: "lost", Sys: sys,
		Origin:   geometry.Vec3{X: 50},
		NSUnits:  Units{L: 1e-3, Nu: 0.1},
		DPDUnits: Units{L: 1e-3, Nu: 0.1},
		Interfaces: []*geometry.Surface{geometry.PlanarRect("g", geometry.Vec3{},
			geometry.Vec3{Y: 2}, geometry.Vec3{Z: 2}, 1, 1)},
		FluxFaces: []*dpd.FluxBC{flux},
	}
	m := NewMetasolver()
	m.Patches = []*ContinuumPatch{patch}
	m.Atomistic = []*AtomisticRegion{region}
	if err := m.ExchangeInterfaceConditions(); err == nil {
		t.Fatal("expected orphan-interface error")
	}
}

// must unwraps a constructor's result, failing the test on its error.
func must[T any](v T, err error) func(testing.TB) T {
	return func(t testing.TB) T {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}

// TestAdvanceAllocatesNothingPerPeriod holds a steady exchange period of a
// two-patch continuum run to zero allocations: the patch runners, their
// error slots and their wait group are built once, and again only when
// Patches changes.
func TestAdvanceAllocatesNothingPerPeriod(t *testing.T) {
	m, pa, pb := twoPatchChannel(t)
	m.NSStepsPerExchange = 2
	if err := m.Advance(2); err != nil { // build the arenas, buffers and runners
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(10, func() {
		if err := m.Advance(1); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("Advance(1) allocated %.1f times per period, want 0", a)
	}
	m.Patches = []*ContinuumPatch{pb, pa}
	if err := m.Advance(1); err != nil {
		t.Fatal(err)
	}
	if m.runFor[0] != pb || m.runFor[1] != pa {
		t.Fatal("the runners were not rebuilt for the reordered Patches")
	}
}

// TestAdvanceSurfacesPatchPanic: a patch that panics inside its step makes
// Advance return that patch's error, naming it, instead of killing the
// process; the prebuilt runners serve the next period as before.
func TestAdvanceSurfacesPatchPanic(t *testing.T) {
	m, pa, _ := twoPatchChannel(t)
	m.NSStepsPerExchange = 1
	force := pa.Solver.Force
	pa.Solver.Force = func(_, _, _, _ float64) (float64, float64, float64) { panic("injected") }
	err := m.Advance(1)
	if err == nil || !strings.Contains(err.Error(), `patch "A" panicked: injected`) {
		t.Fatalf("Advance with a panicking patch: %v", err)
	}
	pa.Solver.Force = force
	if err := m.Advance(1); err != nil {
		t.Fatalf("the period after the panic: %v", err)
	}
}

// TestAdvanceWaitsForPatchesWhenARegionPanics: a region that panics on the
// caller goroutine leaves Advance only after both patches have finished
// their steps of the period, and the next period runs on the same runners.
func TestAdvanceWaitsForPatchesWhenARegionPanics(t *testing.T) {
	m, pa, pb := twoPatchChannel(t)
	m.NSStepsPerExchange = 2
	sys := must(dpd.NewSystem(dpd.DefaultParams(1), geometry.Vec3{}, geometry.Vec3{X: 4, Y: 4, Z: 4}, [3]bool{true, true, true}))(t)
	sys.AddParticle(geometry.Vec3{X: 1, Y: 2, Z: 2}, geometry.Vec3{}, 0, false)
	sys.External = func(float64, *dpd.Particle) geometry.Vec3 { panic("region blew up") }
	m.Atomistic = []*AtomisticRegion{{Name: "omega", Sys: sys, NSUnits: Units{L: 1e-3, Nu: 0.1}, DPDUnits: Units{L: 5e-5, Nu: 0.1}}}
	func() {
		defer func() {
			if r := recover(); r != "region blew up" {
				t.Fatalf("Advance with a panicking region: recovered %v", r)
			}
		}()
		m.Advance(1) //nolint:errcheck // it panics
	}()
	if pa.Solver.Steps != 2 || pb.Solver.Steps != 2 {
		t.Fatalf("after the panic the patches had taken %d and %d steps, want 2 each", pa.Solver.Steps, pb.Solver.Steps)
	}
	m.Atomistic = nil
	if err := m.Advance(1); err != nil {
		t.Fatalf("the period after the panic: %v", err)
	}
	if pa.Solver.Steps != 4 || pb.Solver.Steps != 4 {
		t.Fatalf("after the next period the patches had taken %d and %d steps, want 4 each", pa.Solver.Steps, pb.Solver.Steps)
	}
}
