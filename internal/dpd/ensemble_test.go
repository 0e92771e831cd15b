package dpd

import (
	"math"
	"testing"

	"nektarg/internal/geometry"
	"nektarg/internal/stats"
)

// standardFluidSample runs one member of the equilibrium ensemble the
// statistical tests share: Groot & Warren's standard fluid (a = 25, γ = 4.5,
// kBT = 1, ρ = 3, dt = 0.01) as 648 particles in a periodic 6³ box, seeded
// with splitmix64(member), equilibrated for 300 steps, then the kinetic
// temperature and the virial pressure averaged over 40 samples 3 steps apart.
func standardFluidSample(t testing.TB, member int) (temp, press float64) {
	p := DefaultParams(1)
	p.Seed = splitmix64(uint64(member))
	s := must(NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 6, Y: 6, Z: 6}, [3]bool{true, true, true}))(t)
	s.FillRandom(648, 0)
	s.Run(300)
	const samples = 40
	for i := 0; i < samples; i++ {
		s.Run(3)
		temp += s.Temperature()
		press += s.VirialPressure()
	}
	return temp / samples, press / samples
}

// parentEnsemble is what standardFluidSample(t, 1..12) returned at commit
// 8aaeba6 — the cell-pair kernel with the two-round pair hash — recorded
// before the gather/filter/force kernel was written: {temperature, pressure}.
var parentEnsemble = [12][2]float64{
	{1.051689, 23.86007},
	{1.003871, 23.66463},
	{1.012388, 23.64183},
	{1.032760, 23.78408},
	{0.982451, 23.59211},
	{0.999758, 23.67544},
	{1.027270, 23.73894},
	{1.022253, 23.72304},
	{1.021846, 23.73961},
	{1.017046, 23.71333},
	{1.042079, 23.81891},
	{1.040282, 23.82760},
}

// TestEnsembleMatchesParentKernel is the statistical half of the kernel's
// contract. Its forces at a fixed configuration are held to the reference
// kernel (TestPairKernelMatchesReference), but it draws another random
// stream, so trajectories are not comparable: the same 12-member ensemble
// must instead give the temperature and the pressure the parent's gave, the
// means within one pooled standard deviation of the members.
func TestEnsembleMatchesParentKernel(t *testing.T) {
	var got, want [2]stats.Moments
	for m, parent := range parentEnsemble {
		temp, press := standardFluidSample(t, m+1)
		got[0].Add(temp)
		got[1].Add(press)
		want[0].Add(parent[0])
		want[1].Add(parent[1])
	}
	for q, name := range []string{"temperature", "pressure"} {
		g, w := &got[q], &want[q]
		pooled := math.Sqrt((g.Variance() + w.Variance()) / 2)
		t.Logf("%s: parent %.4f ± %.4f, this kernel %.4f ± %.4f (sd over %d members)", name, w.Mean(), w.StdDev(), g.Mean(), g.StdDev(), len(parentEnsemble))
		if d := math.Abs(g.Mean() - w.Mean()); d > pooled {
			t.Errorf("%s: ensemble mean %.4f is %.4f from the parent's %.4f, more than the pooled sd %.4f", name, g.Mean(), d, w.Mean(), pooled)
		}
	}
}
