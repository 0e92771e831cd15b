package dpd

import (
	"fmt"
	"testing"

	"nektarg/internal/geometry"
)

// Kernel benchmarks for the DPD hot path: the tiled force evaluation and
// the full velocity-Verlet step. Named BenchmarkKernel* so scripts/bench.sh
// captures them in the "kernels" bundle section.

func benchSystem(t testing.TB, n int, box float64) *System {
	p := DefaultParams(1)
	s := must(NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: box, Y: box, Z: box}, [3]bool{true, true, true}))(t)
	s.FillRandom(n, 0)
	s.Run(3) // warm up cell lists, tiles and scratch
	return s
}

// benchOpenSlab is the region the repo's benchmark workloads run: an open
// 10³ box at its steady population of 3550, no-slip walls at z = 0 and
// z = 10, periodic in y, flux faces at both x ends.
func benchOpenSlab(t testing.TB) *System {
	hi := geometry.Vec3{X: 10, Y: 10, Z: 10}
	s := must(NewSystem(DefaultParams(1), geometry.Vec3{}, hi, [3]bool{false, true, false}))(t)
	s.Walls = zWalls(hi.Z)
	s.FillRandom(3550, 0)
	s.Inflows = xFluxFaces()
	s.Run(3)
	return s
}

// workloadSlab is benchOpenSlab with the fluid the workloads put in it: two
// species, kBT 0.2, dt 0.005.
func workloadSlab(t testing.TB) *System {
	p := DefaultParams(2)
	p.KBT, p.Dt = 0.2, 0.005
	hi := geometry.Vec3{X: 10, Y: 10, Z: 10}
	s := must(NewSystem(p, geometry.Vec3{}, hi, [3]bool{false, true, false}))(t)
	s.Walls = zWalls(hi.Z)
	s.FillRandom(3550, 0)
	s.Inflows = xFluxFaces()
	return s
}

// benchWorkloadSlab is workloadSlab run past its start-up transient.
func benchWorkloadSlab(t testing.TB) *System {
	s := workloadSlab(t)
	s.Run(400)
	return s
}

func BenchmarkKernelForces(b *testing.B) {
	b.Run("workload-slab", func(b *testing.B) {
		s := benchWorkloadSlab(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.ComputeForces()
		}
	})
	b.Run("open-zslab-n=3550", func(b *testing.B) {
		s := benchOpenSlab(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.ComputeForces()
		}
	})
	for _, n := range []int{600, 2400} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			box := 6.0
			if n > 1000 {
				box = 9.0
			}
			s := benchSystem(b, n, box)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ComputeForces()
			}
		})
	}
}

func BenchmarkKernelVVStep(b *testing.B) {
	s := benchSystem(b, 600, 6.0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.VVStep()
	}
}

// BenchmarkKernelGoVsAVX2 times the workload slab's force evaluation and step
// with the Go pair loops and with the AVX2 kernel (the same bits either way);
// step-p1 and step-p2 run the force sweep on one and two workers. Off amd64,
// or without AVX2, the avx2 legs are skipped.
func BenchmarkKernelGoVsAVX2(b *testing.B) {
	for _, c := range []struct {
		name     string
		parallel int
		step     bool
	}{{"forces", 1, false}, {"step-p1", 1, true}, {"step-p2", 2, true}} {
		for _, kernel := range []string{"go", "avx2"} {
			b.Run(c.name+"/"+kernel, func(b *testing.B) {
				if kernel == "avx2" && !useAVX2 {
					b.Skip("no AVX2 kernel on this host")
				}
				defer func(v bool) { useAVX2 = v }(useAVX2)
				useAVX2 = kernel == "avx2"
				s := benchWorkloadSlab(b)
				s.Parallel = c.parallel
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if c.step {
						s.VVStep()
					} else {
						s.ComputeForces()
					}
				}
			})
		}
	}
}
