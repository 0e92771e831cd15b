package nektar1d

import (
	"math"
	"testing"
)

// BenchmarkKernelTreeStep is one Network.Step of the `full` workload's tree
// (15 segments x 21 nodes, 7 junctions, 8 windkessels) at the coupling's
// sub-step, observers off: the unit nektar1d.step_s counts ~2000 of per
// exchange period. Must report 0 allocs/op.
func BenchmarkKernelTreeStep(b *testing.B) {
	net, inlet := fullTree(b)
	inlet.Q = func(tm float64) float64 { return 1 - math.Cos(2*math.Pi*tm/0.1) }
	if err := net.Run(100, fixtureDt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := net.Step(fixtureDt); err != nil {
			b.Fatal(err)
		}
	}
}
