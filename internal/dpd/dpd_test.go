package dpd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"nektarg/internal/geometry"
	"nektarg/internal/stats"
)

func periodicFluid(t *testing.T, n int, l float64) *System {
	t.Helper()
	p := DefaultParams(1)
	s := NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: l, Y: l, Z: l}, [3]bool{true, true, true})
	s.FillRandom(n, 0)
	return s
}

func TestParamsValidate(t *testing.T) {
	p := DefaultParams(2)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultParams(2)
	bad.A[0][1] = 30 // asymmetric
	if err := bad.Validate(); err == nil {
		t.Fatal("expected symmetry error")
	}
	bad2 := DefaultParams(1)
	bad2.Dt = 0
	if err := bad2.Validate(); err == nil {
		t.Fatal("expected dt error")
	}
}

func TestPairXiSymmetricAndBounded(t *testing.T) {
	var sum, sum2 float64
	const n = 20000
	for i := 0; i < n; i++ {
		x := pairXi(7, uint64(i), 3, 11)
		y := pairXi(7, uint64(i), 11, 3)
		if x != y {
			t.Fatal("xi not symmetric in particle ids")
		}
		if k := pairXiKeyed(7^splitmix64(uint64(i)), 3, 11); k != x {
			t.Fatalf("step %d: keyed xi %v differs from the per-pair hash %v", i, k, x)
		}
		if math.Abs(x) > math.Sqrt(3)+1e-12 {
			t.Fatalf("xi out of range: %v", x)
		}
		sum += x
		sum2 += x * x
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("xi mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("xi variance = %v", variance)
	}
}

// TestPairXiMoments holds the one-round pair hash to what the thermostat
// needs of it over the keys a run feeds it — small particle ids, consecutive
// steps: zero mean, unit variance, and no correlation between one pair's
// draws at consecutive steps, between two pairs that share a particle, or
// between pairs whose keys differ in one low bit of either id. Each within
// three standard errors of an ideal generator's.
func TestPairXiMoments(t *testing.T) {
	const ids, steps = 120, 30
	var xi, xi2, lag, shared, nextLo, nextHi stats.Moments
	for step := uint64(0); step < steps; step++ {
		key, keyNext := 7^splitmix64(step), 7^splitmix64(step+1)
		for i := int64(0); i < ids; i++ {
			for j := i + 1; j < ids; j++ {
				x := pairXiKeyed(key, i, j)
				xi.Add(x)
				xi2.Add(x * x)
				lag.Add(x * pairXiKeyed(keyNext, i, j))
				shared.Add(x * pairXiKeyed(key, j, ids+i))
				nextLo.Add(x * pairXiKeyed(key, i, j+1))
				nextHi.Add(x * pairXiKeyed(key, i+1, j+1))
			}
		}
	}
	n := float64(xi.N())
	// ξ uniform on ±√3: Var ξ = 1, Var ξ² = 9/5 - 1, Var(ξ ξ') = 1.
	for _, c := range []struct {
		name       string
		got, want  float64
		stdOfTerms float64
	}{
		{"mean", xi.Mean(), 0, 1},
		{"variance", xi2.Mean() - xi.Mean()*xi.Mean(), 1, math.Sqrt(0.8)},
		{"step-lag correlation", lag.Mean(), 0, 1},
		{"shared-particle correlation", shared.Mean(), 0, 1},
		{"adjacent-id correlation", nextLo.Mean(), 0, 1},
		{"adjacent-pair correlation", nextHi.Mean(), 0, 1},
	} {
		if se := c.stdOfTerms / math.Sqrt(n); math.Abs(c.got-c.want) > 3*se {
			t.Errorf("%s = %.5f over %.0f draws, want %v ± %.5f", c.name, c.got, n, c.want, 3*se)
		}
	}
}

func TestMomentumConservationPeriodic(t *testing.T) {
	s := periodicFluid(t, 500, 5)
	// Zero the net momentum first.
	p0 := s.TotalMomentum().Scale(1 / 500.0)
	for i := range s.Particles {
		s.Particles[i].Vel = s.Particles[i].Vel.Sub(p0)
	}
	s.Run(50)
	p := s.TotalMomentum()
	if p.Norm() > 1e-9 {
		t.Fatalf("momentum drifted: %v", p)
	}
}

func TestThermostatEquilibrium(t *testing.T) {
	// Start cold; the random/dissipative pair must drive the system to kBT.
	p := DefaultParams(1)
	p.KBT = 1
	s := NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 5, Y: 5, Z: 5}, [3]bool{true, true, true})
	s.FillRandom(375, 0) // rho = 3
	for i := range s.Particles {
		s.Particles[i].Vel = geometry.Vec3{}
	}
	s.Run(300)
	// Average temperature over a window.
	var tAvg float64
	const win = 50
	for i := 0; i < win; i++ {
		s.Run(2)
		tAvg += s.Temperature()
	}
	tAvg /= win
	if math.Abs(tAvg-1) > 0.1 {
		t.Fatalf("temperature = %v want ~1", tAvg)
	}
}

func TestDeterministicUnderParallelism(t *testing.T) {
	run := func(workers int) []geometry.Vec3 {
		p := DefaultParams(1)
		s := NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 6, Y: 6, Z: 6}, [3]bool{true, true, true})
		s.Parallel = workers
		s.FillRandom(400, 0)
		s.Run(20)
		out := make([]geometry.Vec3, len(s.Particles))
		for i := range s.Particles {
			out[i] = s.Particles[i].Pos
		}
		return out
	}
	a := run(1)
	b := run(4)
	if len(a) != len(b) {
		t.Fatalf("particle counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Sub(b[i]).Norm() > 1e-12 {
			t.Fatalf("particle %d diverged: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPlaneWallNoPenetration(t *testing.T) {
	p := DefaultParams(1)
	s := NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 5, Y: 5, Z: 3}, [3]bool{true, true, false})
	s.Walls = []Wall{
		&PlaneWall{Point: geometry.Vec3{Z: 0}, Norm: geometry.Vec3{Z: 1}},
		&PlaneWall{Point: geometry.Vec3{Z: 3}, Norm: geometry.Vec3{Z: -1}},
	}
	s.FillRandom(225, 0)
	s.Run(100)
	for i := range s.Particles {
		z := s.Particles[i].Pos.Z
		if z < -1e-9 || z > 3+1e-9 {
			t.Fatalf("particle escaped: z = %v", z)
		}
	}
}

func TestCouetteLinearProfile(t *testing.T) {
	// Top wall moving at U drives a linear shear profile.
	p := DefaultParams(1)
	p.Dt = 0.005
	uWall := 1.0
	lz := 4.0
	s := NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 6, Y: 6, Z: lz}, [3]bool{true, true, false})
	s.Walls = []Wall{
		&PlaneWall{Point: geometry.Vec3{}, Norm: geometry.Vec3{Z: 1}},
		&PlaneWall{Point: geometry.Vec3{Z: lz}, Norm: geometry.Vec3{Z: -1}, WallVel: geometry.Vec3{X: uWall}},
	}
	s.FillRandom(int(3*6*6*lz), 0)
	s.Run(1500)
	bins := NewBinGrid(geometry.Vec3{}, geometry.Vec3{X: 6, Y: 6, Z: lz}, 1, 1, 8)
	for i := 0; i < 800; i++ {
		s.Run(1)
		bins.Accumulate(s)
	}
	mean := bins.MeanVelocity()
	// Profile must increase monotonically-ish from ~0 at bottom to ~uWall
	// at top; check ends and the mid-slope.
	bottom := mean[0].X
	top := mean[7].X
	if bottom > 0.3*uWall {
		t.Fatalf("slip at bottom wall: u = %v", bottom)
	}
	if top < 0.6*uWall {
		t.Fatalf("top layer not dragged: u = %v", top)
	}
	mid := mean[4].X
	if mid < 0.2*uWall || mid > 0.9*uWall {
		t.Fatalf("mid profile u = %v not between walls", mid)
	}
}

func TestPoiseuilleBodyForceProfile(t *testing.T) {
	// Body-force-driven flow between plates: parabolic profile with zero
	// wall velocity and centerline max.
	p := DefaultParams(1)
	p.Dt = 0.005
	lz := 4.0
	s := NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 6, Y: 6, Z: lz}, [3]bool{true, true, false})
	s.Walls = []Wall{
		&PlaneWall{Point: geometry.Vec3{}, Norm: geometry.Vec3{Z: 1}},
		&PlaneWall{Point: geometry.Vec3{Z: lz}, Norm: geometry.Vec3{Z: -1}},
	}
	s.External = func(_ float64, _ *Particle) geometry.Vec3 {
		return geometry.Vec3{X: 0.05}
	}
	s.FillRandom(int(3*6*6*lz), 0)
	s.Run(1500)
	bins := NewBinGrid(geometry.Vec3{}, geometry.Vec3{X: 6, Y: 6, Z: lz}, 1, 1, 8)
	for i := 0; i < 800; i++ {
		s.Run(1)
		bins.Accumulate(s)
	}
	mean := bins.MeanVelocity()
	center := (mean[3].X + mean[4].X) / 2
	edge := (mean[0].X + mean[7].X) / 2
	if center <= 2*edge || center <= 0 {
		t.Fatalf("profile not parabolic: edge %v center %v", edge, center)
	}
	// Symmetry about the centerline within statistical noise.
	if math.Abs(mean[1].X-mean[6].X) > 0.5*center {
		t.Fatalf("asymmetric profile: %v vs %v", mean[1].X, mean[6].X)
	}
}

func TestInflowOutflowMaintainsDensity(t *testing.T) {
	// Open channel: inflow at x=0, outflow at x=Lx. After transients, the
	// particle count stays near the target density.
	p := DefaultParams(1)
	p.Dt = 0.005
	s := NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 8, Y: 4, Z: 4}, [3]bool{false, true, true})
	uIn := 0.5
	s.Inflows = []*FluxBC{
		{Axis: 0, AtMax: false, Rho: 3, Vel: func(geometry.Vec3) geometry.Vec3 {
			return geometry.Vec3{X: uIn}
		}},
		{Axis: 0, AtMax: true, Rho: 3}, // outflow: reservoir follows local velocity
	}
	s.FillRandom(int(3*8*4*4), 0)
	// Give every particle the mean drift so flow starts developed.
	for i := range s.Particles {
		s.Particles[i].Vel.X += uIn
	}
	n0 := len(s.Particles)
	s.Run(600)
	n1 := len(s.Particles)
	if math.Abs(float64(n1-n0))/float64(n0) > 0.15 {
		t.Fatalf("density drifted: %d -> %d", n0, n1)
	}
	// Net flux through the domain must be positive (flow through).
	var ux float64
	var cnt int
	for i := range s.Particles {
		ux += s.Particles[i].Vel.X
		cnt++
	}
	if ux/float64(cnt) < 0.1*uIn {
		t.Fatalf("through-flow died: mean ux = %v", ux/float64(cnt))
	}
}

func TestCylinderWallKeepsParticlesInside(t *testing.T) {
	p := DefaultParams(1)
	r := 2.0
	s := NewSystem(p, geometry.Vec3{X: -2.5, Y: -2.5, Z: 0}, geometry.Vec3{X: 2.5, Y: 2.5, Z: 5}, [3]bool{false, false, true})
	s.Walls = []Wall{&CylinderWall{Center: geometry.Vec3{}, Radius: r}}
	// Seed only inside the cylinder.
	for len(s.Particles) < 300 {
		pos := geometry.Vec3{
			X: (s.rng.Float64() - 0.5) * 2 * r,
			Y: (s.rng.Float64() - 0.5) * 2 * r,
			Z: s.rng.Float64() * 5,
		}
		if math.Hypot(pos.X, pos.Y) < 0.95*r {
			s.AddParticle(pos, geometry.Vec3{}, 0, false)
		}
	}
	s.Run(200)
	for i := range s.Particles {
		pp := s.Particles[i].Pos
		if math.Hypot(pp.X, pp.Y) > r+1e-9 {
			t.Fatalf("particle left the pipe: r = %v", math.Hypot(pp.X, pp.Y))
		}
	}
}

func TestBinGridGeometry(t *testing.T) {
	b := NewBinGrid(geometry.Vec3{}, geometry.Vec3{X: 2, Y: 2, Z: 2}, 2, 2, 2)
	if b.NumBins() != 8 {
		t.Fatalf("bins = %d", b.NumBins())
	}
	if n := b.binOf(geometry.Vec3{X: 0.5, Y: 0.5, Z: 0.5}); n != 0 {
		t.Fatalf("bin = %d", n)
	}
	if n := b.binOf(geometry.Vec3{X: 1.5, Y: 1.5, Z: 1.5}); n != 7 {
		t.Fatalf("bin = %d", n)
	}
	if n := b.binOf(geometry.Vec3{X: -1}); n != -1 {
		t.Fatalf("outside bin = %d", n)
	}
	c := b.BinCenter(7)
	if c.Sub(geometry.Vec3{X: 1.5, Y: 1.5, Z: 1.5}).Norm() > 1e-12 {
		t.Fatalf("center = %v", c)
	}
}

func TestSnapshotResetsWindow(t *testing.T) {
	s := periodicFluid(t, 100, 4)
	b := NewBinGrid(geometry.Vec3{}, geometry.Vec3{X: 4, Y: 4, Z: 4}, 2, 2, 2)
	b.Accumulate(s)
	first := b.Snapshot()
	second := b.Snapshot()
	var nonzero bool
	for _, v := range first {
		if v.Norm() > 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("first snapshot empty")
	}
	for _, v := range second {
		if v.Norm() != 0 {
			t.Fatal("window not reset")
		}
	}
}

func TestSampleVelocityAt(t *testing.T) {
	p := DefaultParams(1)
	s := NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 4, Y: 4, Z: 4}, [3]bool{true, true, true})
	s.AddParticle(geometry.Vec3{X: 1, Y: 1, Z: 1}, geometry.Vec3{X: 2}, 0, false)
	s.AddParticle(geometry.Vec3{X: 1.2, Y: 1, Z: 1}, geometry.Vec3{X: 4}, 0, false)
	s.AddParticle(geometry.Vec3{X: 3, Y: 3, Z: 3}, geometry.Vec3{X: 100}, 0, false)
	v, n := s.SampleVelocityAt(geometry.Vec3{X: 1.1, Y: 1, Z: 1}, 0.5)
	if n != 2 {
		t.Fatalf("n = %d", n)
	}
	if math.Abs(v.X-3) > 1e-12 {
		t.Fatalf("v = %v", v)
	}
}

// TestSampleVelocityAtMatchesUnfilteredSweep holds the early rejection on
// non-periodic axes to the plain minimum-image sweep, bit for bit, on the
// open slab of the flux-BC regions, a closed box and a fully periodic box —
// with one particle exactly radius away along an open axis (accepted: the
// filter rejects only above radius², as the sweep does) and one just beyond.
func TestSampleVelocityAtMatchesUnfilteredSweep(t *testing.T) {
	const radius = 1.5
	for _, periodic := range [][3]bool{{false, true, false}, {false, false, false}, {true, true, true}} {
		s := NewSystem(DefaultParams(1), geometry.Vec3{}, geometry.Vec3{X: 10, Y: 10, Z: 10}, periodic)
		s.FillRandom(3000, 0)
		for i := range s.Particles {
			s.Particles[i].Vel = geometry.Vec3{X: s.rng.NormFloat64(), Y: s.rng.NormFloat64(), Z: s.rng.NormFloat64()}
		}
		s.Particles[7].Frozen = true
		for _, p := range []geometry.Vec3{{X: 0, Y: 5, Z: 5}, {X: 10, Y: 0.2, Z: 9.9}, {X: 4, Y: 9.7, Z: 0}, {X: 5, Y: 5, Z: 5}} {
			atRadius := s.AddParticle(geometry.Vec3{X: p.X + radius, Y: p.Y, Z: p.Z}, geometry.Vec3{X: 1e3}, 0, false)
			s.AddParticle(geometry.Vec3{X: math.Nextafter(p.X+radius, 20), Y: p.Y, Z: p.Z}, geometry.Vec3{X: -1e3}, 0, false)
			if d := s.Particles[atRadius].Pos.X - p.X; d*d != radius*radius {
				t.Fatalf("particle %v is not exactly %v from %v", s.Particles[atRadius].Pos, radius, p)
			}

			var want geometry.Vec3
			var wantN int
			for i := range s.Particles {
				q := &s.Particles[i]
				if !q.Frozen && s.minimumImage(q.Pos, p).Norm2() <= radius*radius {
					want = want.Add(q.Vel)
					wantN++
				}
			}
			want = want.Scale(1 / float64(wantN))

			got, n := s.SampleVelocityAt(p, radius)
			if n != wantN || got != want {
				t.Errorf("periodic %v at %v: %d particles, mean %v; unfiltered sweep %d, %v", periodic, p, n, got, wantN, want)
			}
			if wantN < 5 {
				t.Errorf("periodic %v at %v: only %d particles in range, the case tests nothing", periodic, p, wantN)
			}
		}
	}
}

// TestFluxReservoirFusedMatchesSampleVelocityAt holds the one-pass reservoir
// sampling of a measured flux face to the four SampleVelocityAt sweeps it
// replaced, bit for bit: faces at either end of an open axis of the slab the
// coupled regions run (with a frozen particle in range), a face on a
// periodic axis, where the near-face cut must not apply, and a face nobody is
// near, which reads zero.
func TestFluxReservoirFusedMatchesSampleVelocityAt(t *testing.T) {
	open := NewSystem(DefaultParams(1), geometry.Vec3{}, geometry.Vec3{X: 8, Y: 5, Z: 5}, [3]bool{false, true, false})
	open.Walls = zWalls(5)
	open.FillRandom(600, 0)
	open.Inflows = xFluxFaces()
	open.Run(30)
	open.Particles[3].Frozen = true
	periodic := NewSystem(DefaultParams(1), geometry.Vec3{}, geometry.Vec3{X: 4, Y: 4, Z: 4}, [3]bool{true, true, true})
	periodic.FillRandom(192, 0)
	periodic.Run(5)
	empty := NewSystem(DefaultParams(1), geometry.Vec3{}, geometry.Vec3{X: 8, Y: 4, Z: 4}, [3]bool{false, true, true})
	empty.AddParticle(geometry.Vec3{X: 4, Y: 2, Z: 2}, geometry.Vec3{X: 1}, 0, false)

	for _, c := range []struct {
		name string
		s    *System
		f    *FluxBC
	}{
		{"x-min", open, &FluxBC{Axis: 0, Rho: 3}},
		{"x-max", open, &FluxBC{Axis: 0, AtMax: true, Rho: 3}},
		{"z-max", open, &FluxBC{Axis: 2, AtMax: true, Rho: 3}},
		{"periodic-axis", periodic, &FluxBC{Axis: 1, Rho: 3}},
		{"nobody-near", empty, &FluxBC{Axis: 0, Rho: 3}},
	} {
		for round := 0; round < 8; round++ {
			var pts [nSample]geometry.Vec3
			for k := range pts {
				pts[k] = c.f.randomFacePoint(c.s)
			}
			got := c.f.reservoirVelocities(c.s, &pts)
			for k, pt := range pts {
				want, n := c.s.SampleVelocityAt(pt, faceSampleRadius*c.s.Rc)
				if (n == 0) != (c.name == "nobody-near") {
					t.Fatalf("%s: %d particles in range of %v", c.name, n, pt)
				}
				if got[k] != want {
					t.Errorf("%s point %v: fused pass %v, SampleVelocityAt %v over %d particles", c.name, pt, got[k], want, n)
				}
			}
		}
	}
}

func TestTemperatureOfColdSystemIsZero(t *testing.T) {
	p := DefaultParams(1)
	s := NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 2, Y: 2, Z: 2}, [3]bool{true, true, true})
	s.AddParticle(geometry.Vec3{X: 1, Y: 1, Z: 1}, geometry.Vec3{X: 5}, 0, false)
	// Single particle moving uniformly: no thermal motion about the mean.
	if tt := s.Temperature(); tt != 0 {
		t.Fatalf("T = %v", tt)
	}
}

func TestNumberDensityExcludesFrozen(t *testing.T) {
	p := DefaultParams(1)
	s := NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 1, Y: 1, Z: 1}, [3]bool{true, true, true})
	s.AddParticle(geometry.Vec3{X: 0.5, Y: 0.5, Z: 0.5}, geometry.Vec3{}, 0, false)
	s.AddParticle(geometry.Vec3{X: 0.2, Y: 0.2, Z: 0.2}, geometry.Vec3{}, 0, true)
	if rho := s.NumberDensity(); rho != 1 {
		t.Fatalf("rho = %v", rho)
	}
}

func TestVirialPressureMatchesGrootWarren(t *testing.T) {
	// Equilibrium standard fluid: Groot & Warren measured P = 23.7 at ρ = 3,
	// a = 25, kBT = 1 — 8 % under the asymptotic fit ρ kBT + 0.101 a ρ²
	// (GrootWarrenPressure), which that density has not reached. One run
	// scatters by ~0.1 about it; a few share the test.
	var sum float64
	const members = 4
	for m := 1; m <= members; m++ {
		_, press := standardFluidSample(m)
		sum += press
	}
	got, want := sum/members, 23.7
	if math.Abs(got-want)/want > 0.02 {
		t.Fatalf("pressure = %v over %d runs, Groot & Warren measured %v", got, members, want)
	}
}

func TestVirialPressureScalesWithRepulsion(t *testing.T) {
	measure := func(a float64) float64 {
		p := DefaultParams(1)
		p.A[0][0] = a
		s := NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 5, Y: 5, Z: 5}, [3]bool{true, true, true})
		s.FillRandom(375, 0)
		s.Run(200)
		var sum float64
		for i := 0; i < 20; i++ {
			s.Run(3)
			sum += s.VirialPressure()
		}
		return sum / 20
	}
	p15 := measure(15)
	p50 := measure(50)
	if p50 <= p15 {
		t.Fatalf("pressure must grow with a: %v vs %v", p15, p50)
	}
}

func TestRadialDistributionStructure(t *testing.T) {
	// Equilibrated standard fluid: soft-core depletion at r->0, g ~ 1 far
	// away.
	p := DefaultParams(1)
	s := NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 6, Y: 6, Z: 6}, [3]bool{true, true, true})
	s.FillRandom(648, 0)
	s.Run(300)
	nbins := 30
	g := make([]float64, nbins)
	const samples = 10
	for it := 0; it < samples; it++ {
		s.Run(5)
		gi := s.RadialDistribution(2.5, nbins)
		for k := range g {
			g[k] += gi[k] / samples
		}
	}
	// Soft core: strongly depleted (U(0) = a rc/2 = 12.5 kBT for the
	// standard fluid) yet without a hard-sphere exclusion shell.
	if g[1] > 0.3 {
		t.Fatalf("core g = %v (want strong depletion)", g[1])
	}
	// Long range: ideal-gas limit.
	tail := (g[nbins-1] + g[nbins-2]) / 2
	if math.Abs(tail-1) > 0.1 {
		t.Fatalf("tail g = %v want ~1", tail)
	}
	// Monotone rise out of the core, then the first coordination shell
	// just inside rc: a peak above 1 (soft liquids order weakly).
	if !(g[3] < g[6] && g[6] < g[9]) {
		t.Fatalf("no core-to-shell rise: g=%v", g[:12])
	}
	peak := 0.0
	for _, v := range g[8:13] {
		if v > peak {
			peak = v
		}
	}
	if peak < 1.02 || peak > 1.5 {
		t.Fatalf("first shell peak %v outside the soft-liquid band", peak)
	}
}

func TestRadialDistributionPanics(t *testing.T) {
	p := DefaultParams(1)
	s := NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 4, Y: 4, Z: 4}, [3]bool{true, true, true})
	s.FillRandom(10, 0)
	mustPanic := func(fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		fn()
	}
	mustPanic(func() { s.RadialDistribution(3, 10) }) // > half box
	mustPanic(func() { s.RadialDistribution(1, 0) })
}

func TestMinimumImageProperty(t *testing.T) {
	// |minimumImage(a,b)| <= |a-b| and each component within half box.
	p := DefaultParams(1)
	s := NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 3, Y: 5, Z: 7}, [3]bool{true, true, true})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := geometry.Vec3{X: rng.Float64() * 3, Y: rng.Float64() * 5, Z: rng.Float64() * 7}
		b := geometry.Vec3{X: rng.Float64() * 3, Y: rng.Float64() * 5, Z: rng.Float64() * 7}
		d := s.minimumImage(a, b)
		if d.Norm() > a.Sub(b).Norm()+1e-12 {
			return false
		}
		return math.Abs(d.X) <= 1.5+1e-12 && math.Abs(d.Y) <= 2.5+1e-12 && math.Abs(d.Z) <= 3.5+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
