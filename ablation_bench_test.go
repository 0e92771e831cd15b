// Ablation benchmarks for the design choices DESIGN.md calls out: first- vs.
// second-order time stepping and serial vs. parallel DPD force evaluation.
// (The preconditioner ablation, Jacobi vs. fast diagonalization, needs the
// solver's internals and lives in internal/nektar3d: TestFDMBeatsJacobi.)
package nektarg_test

import (
	"testing"

	"nektarg/internal/dpd"
	"nektarg/internal/geometry"
	"nektarg/internal/mesh"
	"nektarg/internal/nektar3d"
	"nektarg/internal/partition"
)

func benchTimeOrder(b *testing.B, order int) {
	g := must(nektar3d.NewGrid(2, 2, 1, 5, 6.28, 6.28, 1, true, true, true))(b)
	s := must(nektar3d.NewSolver(g, 0.05, 0.01))(b)
	s.Order = order
	s.SetInitial(func(x, y, z float64) (float64, float64, float64) {
		return 0.1 * x, -0.1 * y, 0
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_TimeStep_Order1(b *testing.B) { benchTimeOrder(b, 1) }
func BenchmarkAblation_TimeStep_Order2(b *testing.B) { benchTimeOrder(b, 2) }

func benchDPDWorkers(b *testing.B, workers int) {
	p := dpd.DefaultParams(1)
	sys := must(dpd.NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 10, Y: 10, Z: 10}, [3]bool{true, true, true}))(b)
	sys.Parallel = workers
	sys.FillRandom(3000, 0)
	sys.Run(2) // build cells, warm up
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.VVStep()
	}
}

func BenchmarkAblation_DPDForces_1Worker(b *testing.B)  { benchDPDWorkers(b, 1) }
func BenchmarkAblation_DPDForces_4Workers(b *testing.B) { benchDPDWorkers(b, 4) }

func BenchmarkAblation_Partition_Direct(b *testing.B) {
	m := mesh.CarotidTets(20, 5, 5)
	g := m.AdjacencyGraph(mesh.FullAdjacency, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts := partition.Partition(g, 16)
		benchSink = partition.Evaluate(g, parts, 16).EdgeCut
	}
}

func BenchmarkAblation_Partition_Multilevel(b *testing.B) {
	m := mesh.CarotidTets(20, 5, 5)
	g := m.AdjacencyGraph(mesh.FullAdjacency, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts := partition.PartitionMultilevel(g, 16)
		benchSink = partition.Evaluate(g, parts, 16).EdgeCut
	}
}

func BenchmarkAblation_Stiffness_Affine(b *testing.B) {
	g := must(nektar3d.NewGrid(3, 3, 3, 5, 1, 1, 1, false, false, false))(b)
	x := g.NewField()
	y := g.NewField()
	for i := range x {
		x[i] = float64(i % 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range y {
			y[j] = 0
		}
		g.ApplyStiffness(y, x)
	}
}
