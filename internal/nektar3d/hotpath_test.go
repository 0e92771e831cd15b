package nektar3d

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// parityGrids enumerates the sweep the ISSUE pins: orders 2–8 and
// non-power-of-two element counts, with mixed periodicity.
func parityGrids(t testing.TB) []*Grid {
	var grids []*Grid
	for p := 2; p <= 8; p++ {
		grids = append(grids, must(NewGrid(3, 2, 1, p, 1.0, 0.8, 1.3, false, true, false))(t))
	}
	grids = append(grids,
		must(NewGrid(5, 3, 2, 4, 2.0, 1.0, 1.5, true, true, true))(t),
		must(NewGrid(1, 1, 7, 5, 0.7, 0.9, 3.0, false, false, true))(t),
		must(NewGrid(6, 6, 6, 3, 1.0, 1.0, 1.0, false, false, false))(t),
	)
	return grids
}

// gradient is GradientInto on fresh fields.
func gradient(g *Grid, f []float64) (fx, fy, fz []float64) {
	fx, fy, fz = g.NewField(), g.NewField(), g.NewField()
	g.GradientInto(fx, fy, fz, f)
	return fx, fy, fz
}

func randomField(g *Grid, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	f := g.NewField()
	for i := range f {
		f[i] = rng.NormFloat64()
	}
	return f
}

// TestOperatorParityBitIdentical pins the tiled Kronecker-product applies
// byte-for-byte (==, not a tolerance) to the serial run for every worker
// count, and holds that serial run to the element-by-element references in
// operators_ref_test.go within 1e-13 of the output's max-norm: the 1D
// factors sum the same terms in another order.
func TestOperatorParityBitIdentical(t *testing.T) {
	const refTol = 1e-13
	for gi, g := range parityGrids(t) {
		x := randomField(g, int64(100+gi))
		y0 := randomField(g, int64(200+gi)) // nonzero: ApplyStiffness accumulates
		u, v, w := x, randomField(g, int64(300+gi)), randomField(g, int64(400+gi))
		type applies struct{ y, fx, fy, fz, div []float64 }
		apply := func(nw int) applies {
			g.Parallel = nw
			a := applies{y: append([]float64(nil), y0...), div: g.NewField()}
			g.ApplyStiffness(a.y, x)
			a.fx, a.fy, a.fz = gradient(g, x)
			g.DivergenceInto(a.div, u, v, w)
			return a
		}
		serial := apply(1)

		yRef := append([]float64(nil), y0...)
		g.applyStiffnessRef(yRef, x)
		fxRef, fyRef, fzRef := g.gradientRef(x)
		uxr, _, _ := g.gradientRef(u)
		_, vyr, _ := g.gradientRef(v)
		_, _, wzr := g.gradientRef(w)
		divRef := g.NewField()
		for i := range divRef {
			divRef[i] = uxr[i] + vyr[i] + wzr[i]
		}
		for _, c := range []struct {
			name      string
			got, want []float64
		}{{"stiffness", serial.y, yRef}, {"d/dx", serial.fx, fxRef}, {"d/dy", serial.fy, fyRef},
			{"d/dz", serial.fz, fzRef}, {"divergence", serial.div, divRef}} {
			if d := relDiff(c.got, c.want); !(d <= refTol) {
				t.Errorf("grid %d P=%d: %s differs from the element reference by %.3g of its max-norm, want <= %g",
					gi, g.P, c.name, d, refTol)
			}
		}

		for _, nw := range []int{1, 3, runtime.GOMAXPROCS(0)} {
			got := apply(nw)
			for i := range got.y {
				if got.y[i] != serial.y[i] || got.fx[i] != serial.fx[i] || got.fy[i] != serial.fy[i] ||
					got.fz[i] != serial.fz[i] || got.div[i] != serial.div[i] {
					t.Fatalf("grid %d P=%d workers=%d: node %d differs from the serial run", gi, g.P, nw, i)
				}
			}
		}
	}
}

// TestDivergenceIsSumOfGradientComponents holds the one-direction passes of
// DivergenceInto to the three GradientInto components it replaces, with ==.
// The calls alternate, so each all-direction pass runs over fields a
// one-direction pass wrote, and the other way round.
func TestDivergenceIsSumOfGradientComponents(t *testing.T) {
	for gi, g := range parityGrids(t) {
		for _, nw := range []int{1, 3} {
			g.Parallel = nw
			u, v, w := randomField(g, int64(500+gi)), randomField(g, int64(600+gi)), randomField(g, int64(700+gi))
			div := g.NewField()
			g.DivergenceInto(div, u, v, w)
			ux, _, _ := gradient(g, u)
			_, vy, _ := gradient(g, v)
			_, _, wz := gradient(g, w)
			again := g.NewField()
			g.DivergenceInto(again, u, v, w)
			for i := range div {
				if want := ux[i] + vy[i] + wz[i]; div[i] != want || again[i] != want {
					t.Fatalf("grid %d P=%d workers=%d: div[%d] = %v, then %v; ux+vy+wz = %v", gi, g.P, nw, i, div[i], again[i], want)
				}
			}
		}
	}
}

// TestMaxDivergenceSameBitsNoAlloc: MaxDivergence is the max-norm of the
// sum of GradientInto's components bit for bit, and once its scratch exists
// it allocates nothing — it runs once per patch per exchange on audited runs.
func TestMaxDivergenceSameBitsNoAlloc(t *testing.T) {
	g := must(NewGrid(3, 2, 2, 4, 1, 1, 1, false, true, false))(t)
	s := must(NewSolver(g, 0.05, 2e-3))(t)
	copy(s.U, randomField(g, 11))
	copy(s.V, randomField(g, 12))
	copy(s.W, randomField(g, 13))
	ux, _, _ := gradient(g, s.U)
	_, vy, _ := gradient(g, s.V)
	_, _, wz := gradient(g, s.W)
	var want float64
	for i := range ux {
		want = math.Max(want, math.Abs(ux[i]+vy[i]+wz[i]))
	}
	if got := s.MaxDivergence(); got != want {
		t.Fatalf("MaxDivergence = %v, want %v", got, want)
	}
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	if a := testing.AllocsPerRun(20, func() { s.MaxDivergence() }); a != 0 {
		t.Fatalf("MaxDivergence allocated %.1f allocs/op in steady state, want 0", a)
	}
}

// TestStepBitIdenticalAcrossWorkerCounts pins the end-to-end determinism
// contract: a full solver trajectory is byte-identical for every Parallel
// setting.
func TestStepBitIdenticalAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) *Solver {
		g := must(NewGrid(3, 3, 3, 4, 1, 1, 1, true, true, false))(t)
		g.Parallel = workers
		s := must(NewSolver(g, 0.05, 2e-3))(t)
		s.Order = 2
		s.Tol = 1e-9
		s.SetInitial(func(x, y, z float64) (u, v, w float64) {
			return z * (1 - z), 0.1 * x, 0
		})
		s.VelBC = func(t, x, y, z float64) (u, v, w float64) { return 0, 0, 0 }
		if err := s.Run(4); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return s
	}
	ref := run(1)
	for _, workers := range []int{3, runtime.GOMAXPROCS(0)} {
		got := run(workers)
		for i := range ref.U {
			if got.U[i] != ref.U[i] || got.V[i] != ref.V[i] || got.W[i] != ref.W[i] || got.Pr[i] != ref.Pr[i] {
				t.Fatalf("workers=%d: field node %d diverged from serial run", workers, i)
			}
		}
	}
}

// TestSolverStepZeroAllocSteadyState pins the tentpole acceptance criterion:
// a warmed-up Solver.Step performs zero allocations, for serial and tiled
// operator evaluation alike.
func TestSolverStepZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	for _, workers := range []int{1, 3} {
		g := must(NewGrid(3, 3, 3, 4, 1, 1, 1, true, true, false))(t)
		g.Parallel = workers
		s := must(NewSolver(g, 0.05, 2e-3))(t)
		s.Order = 2
		s.SetInitial(func(x, y, z float64) (u, v, w float64) {
			return z * (1 - z), 0, 0
		})
		if err := s.Run(3); err != nil { // warm up arena, scratch and history
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("Parallel=%d: Solver.Step allocated %.1f allocs/op in steady state, want 0", workers, allocs)
		}
	}
}

// TestApplyStiffnessZeroAlloc pins the inner-loop contract directly: the
// operator apply inside CG allocates nothing once the arena exists.
func TestApplyStiffnessZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	g := must(NewGrid(4, 3, 2, 5, 1, 1, 1, false, true, false))(t)
	x := randomField(g, 1)
	y := g.NewField()
	g.ApplyStiffness(y, x) // build the arena
	allocs := testing.AllocsPerRun(50, func() { g.ApplyStiffness(y, x) })
	if allocs != 0 {
		t.Fatalf("ApplyStiffness allocated %.1f allocs/op, want 0", allocs)
	}
	g.Parallel = 3
	g.ApplyStiffness(y, x) // grow worker scratch
	allocs = testing.AllocsPerRun(50, func() { g.ApplyStiffness(y, x) })
	if allocs != 0 {
		t.Fatalf("parallel ApplyStiffness allocated %.1f allocs/op, want 0", allocs)
	}
}
