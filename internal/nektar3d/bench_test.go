package nektar3d

import (
	"fmt"
	"testing"
)

// Kernel benchmarks for the SEM hot path: the Kronecker-product operators
// against the element-by-element references, the Helmholtz solve they feed,
// and the full time step. All names share the BenchmarkKernel prefix so
// scripts/bench.sh captures them as the "kernels" bundle section.

func benchGrid(t testing.TB, p int) *Grid {
	return must(NewGrid(4, 3, 2, p, 1.0, 0.8, 1.3, false, true, false))(t)
}

// kernelCase is one operator benchmark case: benchGrid at an order, or
// "workload", the continuum workload's order-6 patch shape.
type kernelCase struct {
	name string
	g    *Grid
}

func kernelGrids(t testing.TB, orders ...int) []kernelCase {
	var cs []kernelCase
	for _, p := range orders {
		cs = append(cs, kernelCase{fmt.Sprintf("P=%d", p), benchGrid(t, p)})
	}
	return append(cs, kernelCase{"workload", must(NewGrid(4, 2, 2, 6, 1.5, 1, 1, false, true, false))(t)})
}

func BenchmarkKernelStiffnessRef(b *testing.B) {
	for _, p := range []int{4, 8} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			g := benchGrid(b, p)
			x := randomField(g, 1)
			y := g.NewField()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.applyStiffnessRef(y, x)
			}
		})
	}
}

func BenchmarkKernelStiffness(b *testing.B) {
	for _, c := range kernelGrids(b, 4, 8) {
		g := c.g
		b.Run(c.name, func(b *testing.B) {
			x := randomField(g, 1)
			y := g.NewField()
			g.ApplyStiffness(y, x) // build the arena outside the timer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.ApplyStiffness(y, x)
			}
		})
	}
}

func BenchmarkKernelGradient(b *testing.B) {
	for _, c := range kernelGrids(b, 4) {
		g := c.g
		b.Run(c.name, func(b *testing.B) {
			x := randomField(g, 1)
			fx, fy, fz := g.NewField(), g.NewField(), g.NewField()
			g.GradientInto(fx, fy, fz, x)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.GradientInto(fx, fy, fz, x)
			}
		})
	}
}

// BenchmarkKernelDerivative times one collocation derivative field along
// each axis on the continuum workload's patch (25×12×13 nodes), serial: the
// unit of the 15 derivative fields an NS step takes.
func BenchmarkKernelDerivative(b *testing.B) {
	g := must(NewGrid(4, 2, 2, 6, 1.5, 1, 1, false, true, false))(b)
	f, dst := randomField(g, 1), g.NewField()
	for dir, name := range []string{"x", "y", "z"} {
		b.Run(name, func(b *testing.B) {
			g.derivInto(dst, f, dir) // build the arena outside the timer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.derivInto(dst, f, dir)
			}
		})
	}
}

func BenchmarkKernelHelmholtz(b *testing.B) {
	g := benchGrid(b, 4)
	f := randomField(g, 2)
	u := g.NewField()
	gBC := g.NewField() // homogeneous Dirichlet data
	if _, err := g.SolveHelmholtzDirichletIn(u, 2.5, f, gBC, 1e-8, 400); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.SolveHelmholtzDirichletIn(u, 2.5, f, gBC, 1e-8, 400); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelFDMApply times one Dirichlet preconditioner apply on the
// repo benchmark's order-6 patch.
func BenchmarkKernelFDMApply(b *testing.B) {
	g := must(NewGrid(4, 2, 2, 6, 1.5, 1, 1, false, true, false))(b)
	ar := g.arena()
	r := randomField(g, 1)
	z := g.NewField()
	ar.dir.lambda = 300
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ar.dir.Precondition(z, r)
	}
}

func BenchmarkKernelStep(b *testing.B) {
	g := must(NewGrid(3, 3, 3, 4, 1, 1, 1, true, true, false))(b)
	s := must(NewSolver(g, 0.05, 2e-3))(b)
	s.Order = 2
	s.SetInitial(func(x, y, z float64) (u, v, w float64) {
		return z * (1 - z), 0, 0
	})
	if err := s.Run(3); err != nil { // warm up arena, scratch and history
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelRun times Run(10), one exchange period of the continuum
// workload's patch (4×2×2 order-6 elements, periodic in y, second order in
// time): nine unchecked steps and one that checks its solves. Step, which
// checks all of them, is BenchmarkKernelStep's subject.
func BenchmarkKernelRun(b *testing.B) {
	g := must(NewGrid(4, 2, 2, 6, 1.5, 1, 1, false, true, false))(b)
	s := must(NewSolver(g, 0.5, 0.01))(b)
	s.Order = 2
	s.SetInitial(func(x, y, z float64) (u, v, w float64) { return z * (1 - z), 0, 0 })
	if err := s.Run(3); err != nil { // warm up arena, scratch and history
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Run(10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelSampleFace samples one x-face trace of the continuum
// workload's donor: u, v and w of the order-6 4×2×2 "feed" patch at the
// 13×12 nodes of the "distal" patch's x0 face, which sits at the feed's
// local x = 1.
func BenchmarkKernelSampleFace(b *testing.B) {
	g := must(NewGrid(4, 2, 2, 6, 1.5, 1, 1, false, true, false))(b)
	u, v, w := randomField(g, 1), randomField(g, 2), randomField(g, 3)
	pts := g.FacePoints("x0")
	for i := range pts {
		pts[i].X = 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pts {
			su, sv, sw := g.SampleVelocity(u, v, w, p)
			sampleSink += su + sv + sw
		}
	}
}

// sampleSink keeps BenchmarkKernelSampleFace's samples live.
var sampleSink float64
