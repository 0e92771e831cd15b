package platelet

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"nektarg/internal/dpd"
	"nektarg/internal/geometry"
)

// plateletSystem builds a small stagnant two-species box (solvent species 0,
// platelets species 1) with an adhesion site at the bottom wall.
func plateletSystem(t testing.TB, delay float64) (*dpd.System, *Model) {
	t.Helper()
	p := dpd.DefaultParams(2)
	p.Dt = 0.005
	p.KBT = 0.2
	s := dpd.NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 6, Y: 6, Z: 4}, [3]bool{true, true, false})
	s.Walls = []dpd.Wall{
		&dpd.PlaneWall{Point: geometry.Vec3{}, Norm: geometry.Vec3{Z: 1}},
		&dpd.PlaneWall{Point: geometry.Vec3{Z: 4}, Norm: geometry.Vec3{Z: -1}},
	}
	s.FillRandom(200, 0)
	m := NewModel(1, []geometry.Vec3{{X: 3, Y: 3, Z: 0.2}}, delay)
	s.Bonded = append(s.Bonded, m)
	return s, m
}

func TestNoAggregationBeforeDelay(t *testing.T) {
	s, m := plateletSystem(t, 1e9) // effectively infinite delay
	rng := rand.New(rand.NewSource(1))
	SeedPlatelets(s, m, 30, geometry.Vec3{X: 2, Y: 2, Z: 0.1}, geometry.Vec3{X: 4, Y: 4, Z: 1}, rng.Float64)
	s.Run(400)
	if got := m.ClotSize(s); got != 0 {
		t.Fatalf("clot formed despite infinite activation delay: %d", got)
	}
	passive, triggered, adhered := m.Counts(s)
	if triggered != 0 || adhered != 0 {
		t.Fatalf("states: %d/%d/%d", passive, triggered, adhered)
	}
}

func TestClotGrowsUnderStagnantFlow(t *testing.T) {
	s, m := plateletSystem(t, 0.05) // short delay
	rng := rand.New(rand.NewSource(2))
	// Seed across the whole channel so most platelets must diffuse to the
	// growing clot before they can join it.
	SeedPlatelets(s, m, 60, geometry.Vec3{X: 0.2, Y: 0.2, Z: 0.1}, geometry.Vec3{X: 5.8, Y: 5.8, Z: 3.5}, rng.Float64)
	sizes := []int{m.ClotSize(s)}
	for i := 0; i < 20; i++ {
		s.Run(40)
		sizes = append(sizes, m.ClotSize(s))
	}
	final := sizes[len(sizes)-1]
	if final < 3 {
		t.Fatalf("clot did not grow: sizes %v", sizes)
	}
	if sizes[0] >= final {
		t.Fatalf("no growth: sizes %v", sizes)
	}
}

func TestActivationRequiresSustainedContact(t *testing.T) {
	s, m := plateletSystem(t, 0.5)
	// One platelet far away: never activates.
	far := s.AddParticle(geometry.Vec3{X: 1, Y: 1, Z: 3.5}, geometry.Vec3{}, 1, false)
	// One platelet right at the site: activates after the delay.
	near := s.AddParticle(geometry.Vec3{X: 3, Y: 3, Z: 0.3}, geometry.Vec3{}, 1, false)
	// Pin both in place so contact timing is deterministic.
	s.Particles[far].Frozen = false
	idFar := s.Particles[far].ID
	idNear := s.Particles[near].ID

	// Advance time without DPD dynamics by calling AddForces directly.
	for step := 0; step < 200; step++ {
		s.Time += 0.005
		for i := range s.Particles {
			s.Particles[i].F = geometry.Vec3{}
		}
		m.AddForces(s)
		// Keep the near platelet pinned at the site.
		s.Particles[near].Pos = geometry.Vec3{X: 3, Y: 3, Z: 0.3}
		s.Particles[far].Pos = geometry.Vec3{X: 1, Y: 1, Z: 3.5}
	}
	if m.StateOf(idFar) != Passive {
		t.Fatalf("far platelet state = %v", m.StateOf(idFar))
	}
	if m.StateOf(idNear) == Passive {
		t.Fatal("near platelet never activated")
	}
}

func TestMorseForceSign(t *testing.T) {
	m := NewModel(1, []geometry.Vec3{{}}, 0)
	if f := m.morseForce(m.R0); f > 1e-12 || f < -1e-12 {
		t.Fatalf("force at r0 = %v", f)
	}
	if f := m.morseForce(m.R0 + 0.3); f <= 0 {
		t.Fatalf("no attraction beyond r0: %v", f)
	}
	if f := m.morseForce(m.R0 - 0.3); f >= 0 {
		t.Fatalf("no repulsion inside r0: %v", f)
	}
}

func TestFasterFlowSlowsAggregation(t *testing.T) {
	// Pivkin's headline result, by the mechanism behind it: platelets are
	// swept past before the activation delay elapses. A periodic fluid in
	// uniform motion stays so, which makes the speed past a site held in the
	// stream exact: at u = 4 a platelet crosses the contact range in at most
	// 2·1.0/4 = 0.5, half the delay, and none activates; at rest those that
	// start in range stay for longer than the delay and seed a clot. (With
	// the delay under the crossing time the sign flips — flow then feeds the
	// site more platelets than it denies, 330 adhered against 304 over 12
	// runs at u = 3, delay 0.5 — which is why this compares across the
	// threshold rather than two speeds on one side of it: over 12 seeds the
	// stagnant clot is 2…11, the swept one 0.)
	grow := func(seed uint64, speed float64) int {
		p := dpd.DefaultParams(2)
		p.Dt = 0.005
		p.KBT = 0.2
		p.Seed = seed
		s := dpd.NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 8, Y: 4, Z: 4}, [3]bool{true, true, true})
		s.FillRandom(200, 0)
		m := NewModel(1, []geometry.Vec3{{X: 4, Y: 2, Z: 2}}, 1.0)
		s.Bonded = append(s.Bonded, m)
		rng := rand.New(rand.NewSource(int64(seed)))
		SeedPlatelets(s, m, 100, geometry.Vec3{}, geometry.Vec3{X: 8, Y: 4, Z: 4}, rng.Float64)
		for i := range s.Particles {
			s.Particles[i].Vel.X += speed
		}
		s.Run(600)
		return m.ClotSize(s)
	}
	for seed := uint64(1); seed <= 2; seed++ {
		slow, fast := grow(seed, 0), grow(seed, 4)
		if slow < 2 {
			t.Errorf("seed %d: stagnant clot too small to compare: %d", seed, slow)
		}
		if fast >= slow {
			t.Errorf("seed %d: fast flow (%d) should aggregate less than stagnant (%d)", seed, fast, slow)
		}
	}
}

func TestNewModelPanicsWithoutSites(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewModel(1, nil, 0)
}

// TestResumeIsBitIdenticalWhileClotGrows: the activation clocks and states
// ride in dpd.State, so a system rebuilt from code and overlaid with a
// mid-growth capture continues exactly as the uninterrupted run — and two
// models in the same state encode to the same bytes.
func TestResumeIsBitIdenticalWhileClotGrows(t *testing.T) {
	build := func() (*dpd.System, *Model) {
		s, m := plateletSystem(t, 0.05)
		rng := rand.New(rand.NewSource(2))
		SeedPlatelets(s, m, 60, geometry.Vec3{X: 0.2, Y: 0.2, Z: 0.1}, geometry.Vec3{X: 5.8, Y: 5.8, Z: 3.5}, rng.Float64)
		return s, m
	}
	ref, refModel := build()
	ref.Run(300)
	st := ref.CaptureState()
	if refModel.ClotSize(ref) == 0 {
		t.Fatal("test is vacuous: no platelet has adhered at the capture")
	}
	ref.Run(300)

	resumed, model := build()
	if err := resumed.ApplyState(st); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(model.CaptureState(), st.Bonded[0]) {
		t.Fatal("a model restored from a capture encodes differently from it")
	}
	resumed.Run(300)
	if !reflect.DeepEqual(resumed.CaptureState(), ref.CaptureState()) {
		t.Fatalf("resumed run diverged: clot %d vs %d", model.ClotSize(resumed), refModel.ClotSize(ref))
	}

	if err := model.ApplyState(st.Bonded[0][:9]); err == nil {
		t.Fatal("a truncated encoding was accepted")
	}
}

// TestAddForcesReusesScratch: once warmed, AddForces allocates nothing — it
// runs on every DPD step — and what it leaves in its scratch does not leak
// into the next call: a fresh model given the same state computes the same
// forces bit for bit.
func TestAddForcesReusesScratch(t *testing.T) {
	s, m := plateletSystem(t, 0.05)
	rng := rand.New(rand.NewSource(2))
	SeedPlatelets(s, m, 60, geometry.Vec3{X: 0.2, Y: 0.2, Z: 0.1}, geometry.Vec3{X: 5.8, Y: 5.8, Z: 3.5}, rng.Float64)
	s.Run(300)
	if m.ClotSize(s) == 0 {
		t.Fatal("test is vacuous: no platelet has adhered")
	}

	fresh := NewModel(m.Species, m.Sites, m.ActivationDelay)
	if err := fresh.ApplyState(m.CaptureState()); err != nil {
		t.Fatal(err)
	}
	forces := func(model *Model) []geometry.Vec3 {
		for i := range s.Particles {
			s.Particles[i].F = geometry.Vec3{}
		}
		model.AddForces(s)
		f := make([]geometry.Vec3, len(s.Particles))
		for i, p := range s.Particles {
			f[i] = p.F
		}
		return f
	}
	warm, cold := forces(m), forces(fresh)
	if !reflect.DeepEqual(warm, cold) {
		t.Fatal("a warmed model's forces differ from a fresh model's in the same state")
	}

	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	if a := testing.AllocsPerRun(50, func() { m.AddForces(s) }); a != 0 {
		t.Fatalf("AddForces allocated %.1f allocs/op on a warmed system, want 0", a)
	}
}

// FuzzPlateletApplyState: any bytes are either refused with an error or
// restore a model whose CaptureState re-encodes to a fixed point — the same
// bytes back when the input already lists IDs in ascending order — and
// never panic.
func FuzzPlateletApplyState(f *testing.F) {
	s, m := plateletSystem(f, 0.05)
	SeedPlatelets(s, m, 6, geometry.Vec3{X: 2.5, Y: 2.5, Z: 0.1}, geometry.Vec3{X: 3.5, Y: 3.5, Z: 0.5}, rand.New(rand.NewSource(3)).Float64)
	s.Run(40)
	f.Add(m.CaptureState())
	f.Fuzz(func(t *testing.T, b []byte) {
		model := NewModel(1, []geometry.Vec3{{}}, 0.05)
		if err := model.ApplyState(b); err != nil {
			return
		}
		enc := model.CaptureState()
		again := NewModel(1, []geometry.Vec3{{}}, 0.05)
		if err := again.ApplyState(enc); err != nil {
			t.Fatalf("re-encoded state refused: %v", err)
		}
		if !bytes.Equal(again.CaptureState(), enc) {
			t.Fatal("re-encoding is not a fixed point")
		}
		ascending := true
		for r := b[8:]; len(r) > 24; r = r[24:] {
			if int64(binary.LittleEndian.Uint64(r)) >= int64(binary.LittleEndian.Uint64(r[24:])) {
				ascending = false
			}
		}
		if ascending && !bytes.Equal(enc, b) {
			t.Fatal("a canonical encoding did not re-encode to itself")
		}
	})
}
