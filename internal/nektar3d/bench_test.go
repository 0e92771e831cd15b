package nektar3d

import (
	"fmt"
	"testing"
)

// Kernel benchmarks for the SEM hot path: the Kronecker-product operators
// against the element-by-element references, the Helmholtz solve they feed,
// and the full time step. All names share the BenchmarkKernel prefix so
// scripts/bench.sh captures them as the "kernels" bundle section.

func benchGrid(p int) *Grid {
	return NewGrid(4, 3, 2, p, 1.0, 0.8, 1.3, false, true, false)
}

// kernelCase is one operator benchmark case: benchGrid at an order, or
// "workload", the continuum workload's order-6 patch shape.
type kernelCase struct {
	name string
	g    *Grid
}

func kernelGrids(orders ...int) []kernelCase {
	var cs []kernelCase
	for _, p := range orders {
		cs = append(cs, kernelCase{fmt.Sprintf("P=%d", p), benchGrid(p)})
	}
	return append(cs, kernelCase{"workload", NewGrid(4, 2, 2, 6, 1.5, 1, 1, false, true, false)})
}

func BenchmarkKernelStiffnessRef(b *testing.B) {
	for _, p := range []int{4, 8} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			g := benchGrid(p)
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
	for _, c := range kernelGrids(4, 8) {
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
	for _, c := range kernelGrids(4) {
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

func BenchmarkKernelHelmholtz(b *testing.B) {
	g := benchGrid(4)
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
	g := NewGrid(4, 2, 2, 6, 1.5, 1, 1, false, true, false)
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
	g := NewGrid(3, 3, 3, 4, 1, 1, 1, true, true, false)
	s := NewSolver(g, 0.05, 2e-3)
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
