package dpd

import (
	"math"
	"runtime"
	"testing"

	"nektarg/internal/geometry"
)

// TestForcesBitIdenticalAcrossWorkerCounts pins the fixed-tiling contract:
// every Parallel setting (including serial) produces byte-for-byte identical
// trajectories, because the accumulation tiling and merge order never depend
// on the worker count.
func TestForcesBitIdenticalAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []Particle {
		p := DefaultParams(1)
		s := NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 6, Y: 6, Z: 6}, [3]bool{true, true, true})
		s.Parallel = workers
		s.forceTiles = 4 // force multi-tile merging even on single-core hosts
		s.FillRandom(400, 0)
		s.Run(15)
		return append([]Particle(nil), s.Particles...)
	}
	ref := run(1)
	for _, workers := range []int{2, 3, runtime.GOMAXPROCS(0)} {
		got := run(workers)
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: particle counts differ: %d vs %d", workers, len(got), len(ref))
		}
		for i := range ref {
			if got[i].Pos != ref[i].Pos || got[i].Vel != ref[i].Vel || got[i].F != ref[i].F {
				t.Fatalf("workers=%d: particle %d diverged:\n  serial %+v\n  tiled  %+v", workers, i, ref[i], got[i])
			}
		}
	}
}

// TestCaptureStateExcludesScratch pins the checkpoint contract of the force
// scratch: a system restored from a checkpoint taken mid-run (with dirty
// tile buffers, fOld, and cell lists) continues bit-identically to the
// uninterrupted run — scratch reuse leaks nothing across the round-trip.
func TestCaptureStateExcludesScratch(t *testing.T) {
	build := func() *System {
		p := DefaultParams(1)
		s := NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 5, Y: 5, Z: 5}, [3]bool{true, true, true})
		s.FillRandom(300, 0)
		return s
	}
	ref := build()
	ref.Run(10) // scratch is now thoroughly dirty
	st := ref.CaptureState()
	ref.Run(10)

	restored, err := RestoreState(st)
	if err != nil {
		t.Fatal(err)
	}
	restored.Run(10)

	if len(restored.Particles) != len(ref.Particles) {
		t.Fatalf("particle counts differ: %d vs %d", len(restored.Particles), len(ref.Particles))
	}
	for i := range ref.Particles {
		a, b := ref.Particles[i], restored.Particles[i]
		if a.Pos != b.Pos || a.Vel != b.Vel || a.F != b.F {
			t.Fatalf("particle %d diverged after checkpoint round-trip:\n  direct   %+v\n  restored %+v", i, a, b)
		}
	}
}

// TestVVStepZeroAllocSteadyState pins the tentpole acceptance criterion:
// once warmed up, a closed-box dpd.System.Step allocates nothing.
func TestVVStepZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	for _, workers := range []int{1, 3} {
		p := DefaultParams(1)
		s := NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 5, Y: 5, Z: 5}, [3]bool{true, true, true})
		s.Parallel = workers
		s.forceTiles = 4 // multi-tile path even on single-core hosts
		s.FillRandom(200, 0)
		s.Run(3) // warm up scratch, tiles and worker pool
		allocs := testing.AllocsPerRun(10, func() { s.VVStep() })
		if allocs != 0 {
			t.Fatalf("Parallel=%d: VVStep allocated %.1f allocs/op in steady state, want 0", workers, allocs)
		}
		// The step must still do real physics under the guard.
		if s.Temperature() <= 0 || math.IsNaN(s.Temperature()) {
			t.Fatalf("Parallel=%d: degenerate temperature %v", workers, s.Temperature())
		}
	}
}

// TestVVStepOpenBoxAllocatesOnlyOnGrowth extends the guard to the box the
// coupled runs use — walls in z, flux faces inserting and deleting at both x
// ends: a step may allocate only when an insertion outgrows Particles itself,
// and the step after it — insertions close a step, and the scratch, sized
// with cap(Particles), follows at the next force evaluation.
func TestVVStepOpenBoxAllocatesOnlyOnGrowth(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun does
	for _, workers := range []int{1, 3} {
		s := NewSystem(DefaultParams(1), geometry.Vec3{}, geometry.Vec3{X: 6, Y: 5, Z: 5}, [3]bool{false, true, false})
		s.Parallel = workers
		s.forceTiles = 4
		s.Walls = zWalls(5)
		s.FillRandom(450, 0)
		s.Inflows = xFluxFaces()
		s.Run(20) // warm up scratch, tiles and worker pool
		ins0, del0 := s.Inserted, s.Deleted
		var grown int
		var ms runtime.MemStats
		grewLast := false
		for step := 0; step < 200; step++ {
			capBefore := cap(s.Particles)
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			s.VVStep()
			runtime.ReadMemStats(&ms)
			grew := cap(s.Particles) != capBefore
			if grew {
				grown++
			}
			if n := ms.Mallocs - before; n != 0 && !grew && !grewLast {
				t.Fatalf("Parallel=%d step %d: %d allocations with Particles at %d of cap %d", workers, s.Step, n, len(s.Particles), capBefore)
			}
			grewLast = grew
		}
		if s.Inserted == ins0 || s.Deleted == del0 {
			t.Fatalf("Parallel=%d: no insertion (%d) or no deletion (%d) under the guard", workers, s.Inserted-ins0, s.Deleted-del0)
		}
		t.Logf("Parallel=%d: %d particles, +%d -%d, Particles grew in %d of 200 steps", workers, len(s.Particles), s.Inserted-ins0, s.Deleted-del0, grown)
	}
}
