package dpd

import (
	"errors"
	"runtime"
	"testing"

	"nektarg/internal/geometry"
)

// mkOpenChannel builds the open-boundary test system: a flux-BC inflow with
// a prescribed profile, a measured outflow, and two no-slip walls — the
// minimal configuration whose restart used to diverge because a restore
// reseeded the insertion RNG from zero.
func mkOpenChannel(t testing.TB) *System {
	p := DefaultParams(1)
	p.Dt = 0.005
	p.KBT = 0.2
	p.Seed = 7
	sys := must(NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 6, Y: 6, Z: 6}, [3]bool{false, true, false}))(t)
	sys.Walls = []Wall{
		&PlaneWall{Point: geometry.Vec3{}, Norm: geometry.Vec3{Z: 1}},
		&PlaneWall{Point: geometry.Vec3{Z: 6}, Norm: geometry.Vec3{Z: -1}},
	}
	sys.FillRandom(300, 0)
	inflow := &FluxBC{Axis: 0, AtMax: false, Rho: 3,
		Vel: func(geometry.Vec3) geometry.Vec3 { return geometry.Vec3{X: 0.4} }}
	outflow := &FluxBC{Axis: 0, AtMax: true, Rho: 3}
	sys.Inflows = []*FluxBC{inflow, outflow}
	return sys
}

// assertBitIdentical compares two systems field by field with == (no
// tolerance: the restart contract is exact replay).
func assertBitIdentical(t *testing.T, ref, got *System) {
	t.Helper()
	if len(got.Particles) != len(ref.Particles) {
		t.Fatalf("particle counts: %d vs %d", len(got.Particles), len(ref.Particles))
	}
	for i := range ref.Particles {
		a, b := ref.Particles[i], got.Particles[i]
		if a.Pos != b.Pos || a.Vel != b.Vel || a.ID != b.ID || a.Species != b.Species {
			t.Fatalf("particle %d diverged: %+v vs %+v", i, a, b)
		}
	}
	if got.Step != ref.Step || got.Time != ref.Time {
		t.Fatalf("clock mismatch: %d/%v vs %d/%v", got.Step, got.Time, ref.Step, ref.Time)
	}
	if got.Inserted != ref.Inserted || got.Deleted != ref.Deleted {
		t.Fatalf("open-boundary counters: inserted %d/%d deleted %d/%d",
			got.Inserted, ref.Inserted, got.Deleted, ref.Deleted)
	}
}

// TestFluxBCResumeIsBitIdentical is the kill-at-step-k regression for the
// RNG-position bug: an open (flux-BC) system killed at step k and restored
// from its checkpoint must replay the exact insertion stream — positions,
// velocities and insertion times — of the uninterrupted run. Before the
// stream RNG and face accumulators were serialized, the restored run
// replayed the RNG from zero and diverged within one insertion.
func TestFluxBCResumeIsBitIdentical(t *testing.T) {
	const kill, total = 40, 110

	ref := mkOpenChannel(t)
	ref.Run(total)

	sys := mkOpenChannel(t)
	sys.Run(kill)
	st := sys.CaptureState()

	resumed := mkOpenChannel(t)
	if err := resumed.ApplyState(st); err != nil {
		t.Fatal(err)
	}
	resumed.Run(total - kill)

	if ref.Inserted == 0 {
		t.Fatal("test is vacuous: no insertions happened")
	}
	assertBitIdentical(t, ref, resumed)
}

// TestApplyStateInPlaceResume pins the in-place restore path the metasolver
// uses: the scenario is rebuilt from code (hooks attached), then the
// checkpointed state is overlaid with ApplyState.
func TestApplyStateInPlaceResume(t *testing.T) {
	const kill, total = 40, 90

	ref := mkOpenChannel(t)
	ref.Run(total)

	sys := mkOpenChannel(t)
	sys.Run(kill)
	st := sys.CaptureState()

	fresh := mkOpenChannel(t) // fully wired, at t=0
	if err := fresh.ApplyState(st); err != nil {
		t.Fatal(err)
	}
	fresh.Run(total - kill)
	assertBitIdentical(t, ref, fresh)
}

// TestResumeOnAnotherHostIsBitIdentical: a checkpoint of the workload slab
// written at Parallel 2 under GOMAXPROCS 2 and resumed at Parallel 1 under
// GOMAXPROCS 1 — a rank relaunched on a smaller host of the same
// architecture — replays the run that was never interrupted bit for bit.
func TestResumeOnAnotherHostIsBitIdentical(t *testing.T) {
	const kill, total = 200, 400
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ref := workloadSlab(t)
	ref.Parallel = 2
	ref.Run(total)

	sys := workloadSlab(t)
	sys.Parallel = 2
	sys.Run(kill)
	st := sys.CaptureState()

	runtime.GOMAXPROCS(1)
	resumed := workloadSlab(t)
	resumed.Parallel = 1
	if err := resumed.ApplyState(st); err != nil {
		t.Fatal(err)
	}
	resumed.Run(total - kill)
	assertBitIdentical(t, ref, resumed)
}

// TestApplyStateRejectsGeometryMismatch: overlaying a checkpoint onto a
// differently shaped box is a wiring error, not a silent corruption.
func TestApplyStateRejectsGeometryMismatch(t *testing.T) {
	sys := mkOpenChannel(t)
	st := sys.CaptureState()
	p := DefaultParams(1)
	other := must(NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 3, Y: 3, Z: 3}, [3]bool{true, true, true}))(t)
	if err := other.ApplyState(st); err == nil {
		t.Fatal("expected geometry mismatch error")
	}
}

// TestStateWithoutStreamPositionIsRejected: a state that carries no RNG
// position cannot resume bit-identically; ApplyState refuses it and leaves
// the target system untouched.
func TestStateWithoutStreamPositionIsRejected(t *testing.T) {
	sys := mkOpenChannel(t)
	sys.Run(10)
	st := sys.CaptureState()
	st.RNG = nil
	fresh := mkOpenChannel(t)
	before := len(fresh.Particles)
	if err := fresh.ApplyState(st); !errors.Is(err, ErrNoStreamState) {
		t.Fatalf("ApplyState: got %v, want ErrNoStreamState", err)
	}
	if fresh.Step != 0 || len(fresh.Particles) != before {
		t.Fatal("a rejected state was partly applied")
	}
}

// TestApplyStateRejectsFaceCountMismatch: a checkpoint carrying two face
// accumulators cannot be resumed into a system wired with one face.
func TestApplyStateRejectsFaceCountMismatch(t *testing.T) {
	sys := mkOpenChannel(t)
	sys.Run(10)
	st := sys.CaptureState()
	resumed := mkOpenChannel(t)
	resumed.Inflows = resumed.Inflows[:1]
	if err := resumed.ApplyState(st); err == nil {
		t.Fatal("expected face-count mismatch error")
	}
}
