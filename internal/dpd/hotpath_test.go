package dpd

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"nektarg/internal/geometry"
)

// TestForcesBitIdenticalAcrossWorkerCounts pins the host-independence of the
// trajectory: the workload slab — walls, flux faces inserting and deleting,
// two species — gives == particles after 400 steps at every GOMAXPROCS and
// every Parallel setting. One tile per worker and exact pair sums leave
// neither the tiling nor the merge order a bit to move.
func TestForcesBitIdenticalAcrossWorkerCounts(t *testing.T) {
	procs, workers := []int{1, 2, 3, 8}, []int{1, 2, 3, 4}
	if raceEnabled {
		// The plain pass proves the bits; under the detector the corners
		// exercise the pool at a quarter of the cost.
		procs, workers = []int{1, 8}, []int{1, 4}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var ref []Particle
	for _, procs := range procs {
		runtime.GOMAXPROCS(procs)
		for _, workers := range workers {
			s := workloadSlab(t)
			s.Parallel = workers
			s.Run(400)
			if ref == nil {
				if s.Inserted == 0 || s.Deleted == 0 {
					t.Fatalf("inserted %d, deleted %d: index reshuffling not exercised", s.Inserted, s.Deleted)
				}
				ref = s.Particles
				continue
			}
			if len(s.Particles) != len(ref) {
				t.Fatalf("GOMAXPROCS=%d Parallel=%d: %d particles, serial run %d", procs, workers, len(s.Particles), len(ref))
			}
			for i := range ref {
				if s.Particles[i] != ref[i] {
					t.Fatalf("GOMAXPROCS=%d Parallel=%d: particle %d diverged:\n  serial %+v\n  tiled  %+v", procs, workers, i, ref[i], s.Particles[i])
				}
			}
		}
	}
}

// TestPairSumsStayInExactRange checks the range the exact sums need (exactQ):
// every partial sum of a particle's pair forces below 2¹³ per component.
// Beyond it the forces stay right to round-off but their bits depend on the
// worker count again, and nothing else reports it. On the workload slab,
// from the overlapping random fill through 400 steps, the sum of a particle's
// pair-force magnitudes, which bounds every partial sum in any order, must
// keep a factor of 8 of headroom.
func TestPairSumsStayInExactRange(t *testing.T) {
	const limit = 1 << 13
	s := workloadSlab(t)
	worst, most := 0.0, 0
	for k := 0; ; k++ {
		mags, pairs := pairForceMagnitudes(s)
		for i, m := range mags {
			worst, most = max(worst, m.X, m.Y, m.Z), max(most, pairs[i])
		}
		if k == 20 {
			break
		}
		s.Run(20)
	}
	t.Logf("largest sum of pair-force magnitudes %.1f (limit %d), most pairs on one particle %d", worst, limit, most)
	if worst > limit/8 {
		t.Fatalf("a particle's pair-force magnitudes sum to %.1f, within 8x of the exact-sum limit %d", worst, limit)
	}
}

// pairForceMagnitudes returns, per particle and component, the sum of the
// magnitudes of its pair forces as the reference kernel computes them, and
// its number of pairs. No partial sum of its pair forces, in any order, is
// larger than that magnitude sum.
func pairForceMagnitudes(s *System) ([]geometry.Vec3, []int) {
	c := newRefCells(s)
	rc2 := s.Rc * s.Rc
	pair := make([]geometry.Vec3, len(s.Particles)) // one pair's two forces at a time
	mags, pairs := make([]geometry.Vec3, len(s.Particles)), make([]int, len(s.Particles))
	for home := range c.heads {
		hx, hy, hz := home%c.ncell[0], home/c.ncell[0]%c.ncell[1], home/(c.ncell[0]*c.ncell[1])
		for _, off := range halfShell {
			nx, ny, nz := hx+off[0], hy+off[1], hz+off[2]
			if !c.wrapCell(&nx, 0) || !c.wrapCell(&ny, 1) || !c.wrapCell(&nz, 2) {
				continue
			}
			nbr := nx + c.ncell[0]*(ny+c.ncell[1]*nz)
			for i := c.heads[home]; i >= 0; i = c.next[i] {
				j := c.heads[nbr]
				if off == [3]int{} {
					j = c.next[i]
				}
				for ; j >= 0; j = c.next[j] {
					c.pairForce(int(i), int(j), rc2, pair)
					f := pair[i]
					if f == (geometry.Vec3{}) {
						continue // beyond the cutoff
					}
					pair[i], pair[j] = geometry.Vec3{}, geometry.Vec3{}
					m := geometry.Vec3{X: math.Abs(f.X), Y: math.Abs(f.Y), Z: math.Abs(f.Z)}
					mags[i], mags[j] = mags[i].Add(m), mags[j].Add(m)
					pairs[i]++
					pairs[j]++
				}
			}
		}
	}
	return mags, pairs
}

// TestCaptureStateExcludesScratch pins the checkpoint contract of the force
// scratch: a system restored from a checkpoint taken mid-run (with dirty
// tile buffers, fOld, and cell lists) continues bit-identically to the
// uninterrupted run — scratch reuse leaks nothing across the round-trip.
func TestCaptureStateExcludesScratch(t *testing.T) {
	build := func() *System {
		p := DefaultParams(1)
		s := must(NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 5, Y: 5, Z: 5}, [3]bool{true, true, true}))(t)
		s.FillRandom(300, 0)
		return s
	}
	ref := build()
	ref.Run(10) // scratch is now thoroughly dirty
	st := ref.CaptureState()
	ref.Run(10)

	restored := build()
	if err := restored.ApplyState(st); err != nil {
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
		s := must(NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 5, Y: 5, Z: 5}, [3]bool{true, true, true}))(t)
		s.Parallel = workers
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
//
// MemStats.Mallocs counts the whole process, and a garbage collection
// allocates on its own: it starts a mark worker the first time it runs at this
// GOMAXPROCS, every cycle wakes the unique package's map cleanup, and the
// background scavenger it wakes re-arms a timer. So the collector is held off
// while steps are counted, after one forced cycle that also returns the free
// memory, leaving the scavenger nothing to wake for.
func TestVVStepOpenBoxAllocatesOnlyOnGrowth(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun does
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	debug.FreeOSMemory()
	for _, workers := range []int{1, 3} {
		s := must(NewSystem(DefaultParams(1), geometry.Vec3{}, geometry.Vec3{X: 6, Y: 5, Z: 5}, [3]bool{false, true, false}))(t)
		s.Parallel = workers
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
