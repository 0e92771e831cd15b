package core

import (
	"reflect"
	"testing"

	"nektarg/internal/checkpoint"
	"nektarg/internal/dpd"
	"nektarg/internal/geometry"
	"nektarg/internal/nektar1d"
	"nektarg/internal/nektar3d"
)

// restartScenario is one fully wired three-solver coupled run: two
// overlapping 3D channel patches exchanging interface traces, a third
// periodic patch feeding an open DPD region through a flux face (so the
// stream RNG and insertion accumulators are genuinely exercised), and a 1D
// peripheral network on patch B's free outlet, registered with the metasolver
// so Advance charges it every exchange.
type restartScenario struct {
	m        *Metasolver
	networks map[string]*nektar1d.Network
}

// buildRestartScenario wires a fresh scenario from fixed seeds. Two calls
// produce independent but identical initial states — the foundation of every
// restart-determinism assertion below.
func buildRestartScenario(t *testing.T) *restartScenario {
	t.Helper()

	// Two coupled channel patches (same wiring as twoPatchChannel).
	mkChan := func() *nektar3d.Solver {
		g := must(nektar3d.NewGrid(3, 1, 2, 4, 1.5, 1, 1, false, true, false))(t)
		s := must(nektar3d.NewSolver(g, 0.5, 0.01))(t)
		s.Force = func(_, _, _, _ float64) (float64, float64, float64) { return 1, 0, 0 }
		return s
	}
	prof := func(x, y, z float64) (float64, float64, float64) { return z * (1 - z), 0, 0 }
	bc := func(_, x, y, z float64) (float64, float64, float64) { return prof(x, y, z) }
	sa, sb := mkChan(), mkChan()
	sa.SetInitial(prof)
	sb.SetInitial(prof)
	sa.VelBC = bc
	sb.VelBC = bc
	pa := NewContinuumPatch("A", sa, geometry.Vec3{})
	pb := NewContinuumPatch("B", sb, geometry.Vec3{X: 1})

	// A third, periodic patch with uniform flow drives an open DPD region.
	gc := must(nektar3d.NewGrid(2, 2, 2, 3, 1, 1, 1, true, true, true))(t)
	sc := must(nektar3d.NewSolver(gc, 0.1, 0.01))(t)
	sc.SetInitial(func(_, _, _ float64) (float64, float64, float64) { return 0.4, 0, 0 })
	pc := NewContinuumPatch("C", sc, geometry.Vec3{X: 10})

	// A small box keeps the flux-fed particle population O(100) so the
	// whole suite stays fast while still exercising the stream RNG and
	// insertion accumulators every exchange.
	p := dpd.DefaultParams(1)
	p.Seed = 12345
	sys := must(dpd.NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 4, Y: 4, Z: 4}, [3]bool{false, true, true}))(t)
	flux := &dpd.FluxBC{Axis: 0, AtMax: false, Rho: 3}
	sys.Inflows = []*dpd.FluxBC{flux}
	surf := geometry.PlanarRect("gamma1", geometry.Vec3{}, geometry.Vec3{Y: 4}, geometry.Vec3{Z: 4}, 2, 2)
	region := &AtomisticRegion{
		Name: "omegaA", Sys: sys,
		Origin:     geometry.Vec3{X: 10.2, Y: 0.2, Z: 0.2},
		NSUnits:    Units{L: 1e-3, Nu: 0.1},
		DPDUnits:   Units{L: 5e-5, Nu: 0.1},
		Interfaces: []*geometry.Surface{surf},
		FluxFaces:  []*dpd.FluxBC{flux},
	}

	// 1D peripheral network on patch B's free outlet face (x1).
	net := &nektar1d.Network{}
	seg := net.AddSegment(nektar1d.NewSegment("peripheral", 5, 51, 0.5, 4e4, 1.06, 8))
	inlet := &nektar1d.Inlet{Seg: seg}
	net.Inlets = append(net.Inlets, inlet)
	net.Outlets = append(net.Outlets, &nektar1d.Outlet{Seg: seg, WK: nektar1d.NewWindkessel(100, 1e-4)})
	out, err := NewOutletTo1D(pb, "x1", net, inlet, 6)
	if err != nil {
		t.Fatal(err)
	}

	m := NewMetasolver()
	m.NSStepsPerExchange = 4
	m.DPDStepsPerNS = 3
	m.Patches = []*ContinuumPatch{pa, pb, pc}
	m.Atomistic = []*AtomisticRegion{region}
	m.Couplings = []*PatchCoupling{
		{Donor: pa, Receiver: pb, Face: "x0"},
		{Donor: pb, Receiver: pa, Face: "x1"},
	}
	m.Outlets = []*OutletTo1D{out}
	return &restartScenario{
		m:        m,
		networks: map[string]*nektar1d.Network{"tree": net},
	}
}

// advance runs n full exchanges including the per-exchange 1D coupling.
func (sc *restartScenario) advance(t *testing.T, n int) {
	t.Helper()
	if err := sc.m.Advance(n); err != nil {
		t.Fatal(err)
	}
}

// finalBundle captures the scenario's complete state for comparison.
func (sc *restartScenario) finalBundle() *checkpoint.Coupled {
	return sc.m.CaptureCheckpoint(sc.networks)
}

// assertCoupledEqual compares two full coupled bundles bit-for-bit: 3D
// fields, DPD particles (including the serialized RNG stream position and
// flux accumulators), 1D network arrays and windkessel pressures, and the
// exchange count.
func assertCoupledEqual(t *testing.T, got, want *checkpoint.Coupled, label string) {
	t.Helper()
	if got.Exchanges != want.Exchanges {
		t.Fatalf("%s: exchange count %d vs %d", label, got.Exchanges, want.Exchanges)
	}
	for name, w := range want.Patches {
		g, ok := got.Patches[name]
		if !ok {
			t.Fatalf("%s: missing patch %q", label, name)
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: patch %q state differs", label, name)
		}
	}
	for name, w := range want.Regions {
		g, ok := got.Regions[name]
		if !ok {
			t.Fatalf("%s: missing region %q", label, name)
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: region %q state differs (particles %d vs %d, inserted %d vs %d)",
				label, name, len(g.Particles), len(w.Particles), g.Inserted, w.Inserted)
		}
	}
	for name, w := range want.Networks {
		g, ok := got.Networks[name]
		if !ok {
			t.Fatalf("%s: missing network %q", label, name)
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: network %q state differs", label, name)
		}
	}
}

// TestRestartDeterminism is the paper's restart contract: run 6 exchanges
// straight; run 3, checkpoint through the on-disk store, restore into a
// completely fresh wiring, run 3 more — the two final states must be
// bit-identical across all three solver families.
func TestRestartDeterminism(t *testing.T) {
	straight := buildRestartScenario(t)
	straight.advance(t, 6)
	want := straight.finalBundle()

	// First half, checkpointed through the real store (CRC envelope, atomic
	// rename — the whole production write path).
	first := buildRestartScenario(t)
	first.advance(t, 3)
	store := &checkpoint.Store{Dir: t.TempDir()}
	ck := &Checkpointer{Meta: first.m, Networks: first.networks, Store: store}
	if _, err := ck.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Second half in a fresh, independent wiring resumed from disk.
	second := buildRestartScenario(t)
	ck2 := &Checkpointer{Meta: second.m, Networks: second.networks, Store: store}
	if _, err := ck2.Resume(); err != nil {
		t.Fatal(err)
	}
	if second.m.Exchanges != 3 {
		t.Fatalf("resumed at exchange %d, want 3", second.m.Exchanges)
	}
	second.advance(t, 3)

	assertCoupledEqual(t, second.finalBundle(), want, "restart vs straight")
}

// TestRestoreRejectsMismatchedWiring: a bundle from one topology must not be
// overlaid onto different wiring.
func TestRestoreRejectsMismatchedWiring(t *testing.T) {
	sc := buildRestartScenario(t)
	c := sc.m.CaptureCheckpoint(sc.networks)

	// Rename a patch in the live wiring: restore must refuse.
	sc.m.Patches[0].Name = "Z"
	if err := sc.m.RestoreCheckpoint(c, sc.networks); err == nil {
		t.Fatal("expected patch-name mismatch error")
	}
	sc.m.Patches[0].Name = "A"

	// Drop the network: restore must refuse (v2 bundles carry the name set).
	if err := sc.m.RestoreCheckpoint(c, nil); err == nil {
		t.Fatal("expected network mismatch error")
	}

	// Intact wiring restores cleanly.
	if err := sc.m.RestoreCheckpoint(c, sc.networks); err != nil {
		t.Fatal(err)
	}
}

// TestMaybeCheckpointPeriod: writes land only on multiples of Every.
func TestMaybeCheckpointPeriod(t *testing.T) {
	sc := buildRestartScenario(t)
	store := &checkpoint.Store{Dir: t.TempDir(), Keep: 100}
	ck := &Checkpointer{Meta: sc.m, Networks: sc.networks, Store: store, Every: 2}
	for i := 0; i < 5; i++ {
		sc.advance(t, 1)
		if err := ck.MaybeCheckpoint(); err != nil {
			t.Fatal(err)
		}
	}
	files := store.List()
	if len(files) != 2 { // exchanges 2 and 4
		t.Fatalf("%d periodic checkpoints, want 2: %v", len(files), files)
	}
}
