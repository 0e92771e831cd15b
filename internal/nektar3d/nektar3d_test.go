package nektar3d

import (
	"math"
	"strings"
	"testing"

	"nektarg/internal/geometry"
	"nektarg/internal/linalg"
)

func TestGridNodeCounts(t *testing.T) {
	g := must(NewGrid(2, 3, 4, 4, 1, 1, 1, false, false, false))(t)
	if g.Nx != 9 || g.Ny != 13 || g.Nz != 17 {
		t.Fatalf("nodes = %d %d %d", g.Nx, g.Ny, g.Nz)
	}
	gp := must(NewGrid(2, 3, 4, 4, 1, 1, 1, true, true, true))(t)
	if gp.Nx != 8 || gp.Ny != 12 || gp.Nz != 16 {
		t.Fatalf("periodic nodes = %d %d %d", gp.Nx, gp.Ny, gp.Nz)
	}
}

func TestMassIntegratesVolume(t *testing.T) {
	g := must(NewGrid(2, 2, 2, 5, 2, 3, 4, false, false, false))(t)
	f := g.NewField()
	for i := range f {
		f[i] = 1
	}
	if v := g.Integrate(f); math.Abs(v-24) > 1e-10 {
		t.Fatalf("volume integral = %v", v)
	}
	if m := g.Mean(f); math.Abs(m-1) > 1e-12 {
		t.Fatalf("mean = %v", m)
	}
}

func TestMassIntegratesPolynomialExactly(t *testing.T) {
	g := must(NewGrid(2, 2, 2, 4, 1, 1, 1, false, false, false))(t)
	f := g.NewField()
	g.FillField(f, func(x, y, z float64) float64 { return x * x * y * z })
	// ∫ x^2 y z over unit cube = (1/3)(1/2)(1/2) = 1/12.
	if v := g.Integrate(f); math.Abs(v-1.0/12) > 1e-12 {
		t.Fatalf("integral = %v want %v", v, 1.0/12)
	}
}

func TestGradientExactOnPolynomial(t *testing.T) {
	g := must(NewGrid(2, 2, 2, 5, 1, 2, 3, false, false, false))(t)
	f := g.NewField()
	g.FillField(f, func(x, y, z float64) float64 { return x*x + 3*y - z*z*z })
	fx, fy, fz := gradient(g, f)
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				n := g.Idx(i, j, k)
				if math.Abs(fx[n]-2*g.X[i]) > 1e-9 {
					t.Fatalf("fx(%v) = %v", g.X[i], fx[n])
				}
				if math.Abs(fy[n]-3) > 1e-9 {
					t.Fatalf("fy = %v", fy[n])
				}
				if math.Abs(fz[n]+3*g.Z[k]*g.Z[k]) > 1e-8 {
					t.Fatalf("fz(%v) = %v", g.Z[k], fz[n])
				}
			}
		}
	}
}

func TestStiffnessMatchesLaplacianEnergy(t *testing.T) {
	// For u = sin(pi x) on [0,1]^3 (Dirichlet in x): u^T K u = ∫|∇u|^2
	// = pi^2/2.
	g := must(NewGrid(3, 2, 2, 6, 1, 1, 1, false, true, true))(t)
	u := g.NewField()
	g.FillField(u, func(x, y, z float64) float64 { return math.Sin(math.Pi * x) })
	ku := g.NewField()
	g.ApplyStiffness(ku, u)
	var e float64
	for i := range u {
		e += u[i] * ku[i]
	}
	if math.Abs(e-math.Pi*math.Pi/2) > 1e-6 {
		t.Fatalf("energy = %v want %v", e, math.Pi*math.Pi/2)
	}
}

func TestStiffnessAnnihilatesConstants(t *testing.T) {
	g := must(NewGrid(2, 2, 2, 4, 1, 1, 1, true, false, true))(t)
	u := g.NewField()
	for i := range u {
		u[i] = 3.7
	}
	ku := g.NewField()
	g.ApplyStiffness(ku, u)
	for i, v := range ku {
		if math.Abs(v) > 1e-10 {
			t.Fatalf("K const != 0 at %d: %v", i, v)
		}
	}
}

// TestStiffnessNullSpaceRoundOff measures what meanFreePrec's comment states
// about the natural-boundary operator on every parity grid: K·1 and 1ᵀKx
// vanish to round-off — relative to max|Kx| for a unit random x — not
// exactly, because the 1D factors' rows sum to zero only in exact
// arithmetic.
func TestStiffnessNullSpaceRoundOff(t *testing.T) {
	const tol = 1e-13
	var worstK1, worst1K float64
	for gi, g := range parityGrids(t) {
		ones := g.NewField()
		for i := range ones {
			ones[i] = 1
		}
		x := randomField(g, int64(800+gi))
		k1, kx := g.NewField(), g.NewField()
		g.ApplyStiffness(k1, ones)
		g.ApplyStiffness(kx, x)
		var scale, maxK1, sum1K float64
		for i := range kx {
			scale = math.Max(scale, math.Abs(kx[i]))
			maxK1 = math.Max(maxK1, math.Abs(k1[i]))
			sum1K += kx[i]
		}
		worstK1 = math.Max(worstK1, maxK1/scale)
		worst1K = math.Max(worst1K, math.Abs(sum1K)/scale)
		if !(maxK1 <= tol*scale) || !(math.Abs(sum1K) <= tol*scale) {
			t.Errorf("grid %d P=%d: max|K·1| = %.3g, |1ᵀKx| = %.3g, want both <= %g·max|Kx| = %.3g",
				gi, g.P, maxK1, math.Abs(sum1K), tol, tol*scale)
		}
	}
	t.Logf("worst over the parity grids, relative to max|Kx|: max|K·1| %.3g, |1ᵀKx| %.3g", worstK1, worst1K)
}

// manufacturedHelmholtz is (lambda - ∇²) u = f with u = sin(pi x) sin(pi y)
// sin(pi z) on the unit box: f = (lambda + 3 pi^2) u, homogeneous Dirichlet.
func manufacturedHelmholtz(t testing.TB, lambda float64) (g *Grid, f, exact []float64) {
	g = must(NewGrid(2, 2, 2, 7, 1, 1, 1, false, false, false))(t)
	f = g.NewField()
	exact = g.NewField()
	g.FillField(exact, func(x, y, z float64) float64 {
		return math.Sin(math.Pi*x) * math.Sin(math.Pi*y) * math.Sin(math.Pi*z)
	})
	for i := range f {
		f[i] = (lambda + 3*math.Pi*math.Pi) * exact[i]
	}
	return g, f, exact
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		m = math.Max(m, math.Abs(a[i]-b[i]))
	}
	return m
}

func TestHelmholtzDirichletManufactured(t *testing.T) {
	lambda := 4.0
	g, f, exact := manufacturedHelmholtz(t, lambda)
	u := g.NewField()
	st, err := g.SolveHelmholtzDirichletIn(u, lambda, f, g.NewField(), 1e-10, 8000)
	if err != nil {
		t.Fatal(err)
	}
	// The solve reports the true residual of what it returns, whether or
	// not CG had anything left to do after the fast-diagonalization seed.
	if !st.Converged || st.Residual >= 1e-10 {
		t.Fatalf("expected converged stats, got %+v", st)
	}
	if st.Iterations == 0 && st.Initial != st.Residual {
		t.Fatalf("no iterations, yet initial residual %g is not the final %g", st.Initial, st.Residual)
	}
	if maxErr := maxAbsDiff(u, exact); maxErr > 1e-5 {
		t.Fatalf("max error = %g", maxErr)
	}
}

// TestCGIsTheLiveFallback spoils the fast diagonalization — the eigenvalue
// of the x-mode the manufactured solution lives in off by half — so the seed
// is no longer the solution: CG must
// see a residual above tol, iterate under the spoiled preconditioner and
// still reach the manufactured solution to the same bound.
func TestCGIsTheLiveFallback(t *testing.T) {
	lambda := 4.0
	g, f, exact := manufacturedHelmholtz(t, lambda)
	lam := g.arena().dir.ax[0].Lambda // descending: the last is sin(pi x)'s
	lam[len(lam)-1] *= 1.5
	u := g.NewField()
	st, err := g.SolveHelmholtzDirichletIn(u, lambda, f, g.NewField(), 1e-10, 8000)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged || st.Iterations == 0 || st.Initial < 1e-10 {
		t.Fatalf("expected CG to start above tol and iterate, got %+v", st)
	}
	if maxErr := maxAbsDiff(u, exact); maxErr > 1e-5 {
		t.Fatalf("max error = %g", maxErr)
	}
}

// TestSolvesIgnoreTheOutputFieldOnEntry: u and p are output only, so a
// NaN-poisoned field gives the bits a zeroed one gives.
func TestSolvesIgnoreTheOutputFieldOnEntry(t *testing.T) {
	g := must(NewGrid(3, 1, 2, 4, 1.5, 1, 1, false, true, false))(t)
	rhs, bc := randomField(g, 7), randomField(g, 8)
	poisoned := func() []float64 {
		f := g.NewField()
		for i := range f {
			f[i] = math.NaN()
		}
		return f
	}
	solves := map[string]func(out []float64) (linalg.SolveStats, error){
		"Helmholtz": func(out []float64) (linalg.SolveStats, error) {
			return g.SolveHelmholtzDirichletIn(out, 200, rhs, bc, 1e-8, 4000)
		},
		"Poisson": func(out []float64) (linalg.SolveStats, error) {
			return g.SolvePoissonNeumannIn(out, rhs, 1e-8, 4000)
		},
	}
	for name, solve := range solves {
		clean, dirty := g.NewField(), poisoned()
		if _, err := solve(clean); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := solve(dirty); err != nil {
			t.Fatalf("%s into a NaN field: %v", name, err)
		}
		for i := range clean {
			if dirty[i] != clean[i] {
				t.Fatalf("%s: node %d is %v from a NaN field, %v from zeros", name, i, dirty[i], clean[i])
			}
		}
	}
}

func TestHelmholtzSpectralConvergence3D(t *testing.T) {
	lambda := 1.0
	errAt := func(p int) float64 {
		g := must(NewGrid(2, 2, 2, p, 1, 1, 1, false, false, false))(t)
		f := g.NewField()
		exact := g.NewField()
		g.FillField(exact, func(x, y, z float64) float64 {
			return math.Sin(math.Pi*x) * math.Sin(math.Pi*y) * math.Sin(math.Pi*z)
		})
		for i := range f {
			f[i] = (lambda + 3*math.Pi*math.Pi) * exact[i]
		}
		u := g.NewField()
		if _, err := g.SolveHelmholtzDirichletIn(u, lambda, f, g.NewField(), 1e-12, 8000); err != nil {
			t.Fatal(err)
		}
		return maxAbsDiff(u, exact)
	}
	e3, e6 := errAt(3), errAt(6)
	if e6 > e3/50 {
		t.Fatalf("no spectral decay: P3 %g P6 %g", e3, e6)
	}
}

func TestPoissonNeumannManufactured(t *testing.T) {
	// ∇²p = s with p = cos(pi x) cos(pi y) (Neumann-compatible on the unit
	// box, z-independent): s = -2 pi^2 p.
	g := must(NewGrid(3, 3, 1, 6, 1, 1, 1, false, false, false))(t)
	exact := g.NewField()
	g.FillField(exact, func(x, y, z float64) float64 {
		return math.Cos(math.Pi*x) * math.Cos(math.Pi*y)
	})
	s := g.NewField()
	for i := range s {
		s[i] = -2 * math.Pi * math.Pi * exact[i]
	}
	p := g.NewField()
	st, err := g.SolvePoissonNeumannIn(p, s, 1e-11, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("expected converged stats, got %+v", st)
	}
	// Both are mean-free; compare directly.
	if maxErr := maxAbsDiff(p, exact); maxErr > 1e-5 {
		t.Fatalf("max error = %g", maxErr)
	}
}

func TestSampleReproducesPolynomial(t *testing.T) {
	g := must(NewGrid(2, 2, 2, 4, 1, 2, 3, false, false, false))(t)
	f := g.NewField()
	g.FillField(f, func(x, y, z float64) float64 { return x*y + z*z })
	pts := []geometry.Vec3{
		{X: 0.3, Y: 1.1, Z: 0.7},
		{X: 0.5, Y: 1.0, Z: 1.5}, // element boundary
		{X: 0, Y: 0, Z: 0},       // corner
		{X: 1, Y: 2, Z: 3},       // far corner
	}
	for _, p := range pts {
		want := p.X*p.Y + p.Z*p.Z
		if got, _, _ := g.SampleVelocity(f, f, f, p); math.Abs(got-want) > 1e-10 {
			t.Fatalf("SampleVelocity(%v) = %v want %v", p, got, want)
		}
	}
}

func TestSamplePeriodicWraps(t *testing.T) {
	g := must(NewGrid(4, 1, 1, 4, 2, 1, 1, true, true, true))(t)
	f := g.NewField()
	g.FillField(f, func(x, y, z float64) float64 { return math.Sin(math.Pi * x) })
	a, _, _ := g.SampleVelocity(f, f, f, geometry.Vec3{X: 0.3, Y: 0.5, Z: 0.5})
	b, _, _ := g.SampleVelocity(f, f, f, geometry.Vec3{X: 2.3, Y: 0.5, Z: 0.5})
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("periodic sample differs: %v vs %v", a, b)
	}
}

func TestFaceTraceAndPointsConsistent(t *testing.T) {
	g := must(NewGrid(2, 2, 2, 3, 1, 1, 1, false, false, false))(t)
	f := g.NewField()
	g.FillField(f, func(x, y, z float64) float64 { return x + 10*y + 100*z })
	for _, face := range []string{"x0", "x1", "y0", "y1", "z0", "z1"} {
		nodes := must(g.FaceNodes(face))(t)
		pts := g.FacePoints(face)
		if len(nodes) != len(pts) {
			t.Fatalf("%s: %d values, %d points", face, len(nodes), len(pts))
		}
		for i, n := range nodes {
			want := pts[i].X + 10*pts[i].Y + 100*pts[i].Z
			if math.Abs(f[n]-want) > 1e-12 {
				t.Fatalf("%s[%d] = %v want %v", face, i, f[n], want)
			}
		}
	}
}

// TestPoiseuilleChannel drives flow between walls at z=0, z=Lz with a
// constant body force; the steady profile must match u(z) = f z (Lz - z) /
// (2 nu).
func TestPoiseuilleChannel(t *testing.T) {
	nu := 0.5
	forceX := 1.0
	lz := 1.0
	g := must(NewGrid(1, 1, 3, 5, 1, 1, lz, true, true, false))(t)
	s := must(NewSolver(g, nu, 0.01))(t)
	s.Force = func(tm, x, y, z float64) (float64, float64, float64) { return forceX, 0, 0 }
	// Start from the analytic profile scaled down to test convergence.
	if err := s.Run(300); err != nil {
		t.Fatal(err)
	}
	var maxErr float64
	for k := 0; k < g.Nz; k++ {
		z := g.Z[k]
		want := forceX * z * (lz - z) / (2 * nu)
		got := s.U[g.Idx(0, 0, k)]
		if d := math.Abs(got - want); d > maxErr {
			maxErr = d
		}
	}
	if maxErr > 2e-3 {
		t.Fatalf("Poiseuille max error = %g", maxErr)
	}
	if s.MaxDivergence() > 0.05 {
		t.Fatalf("divergence = %g", s.MaxDivergence())
	}
}

// TestTaylorGreenDecay checks the viscous decay rate of a 2D Taylor-Green
// vortex on a fully periodic box: E(t) = E(0) exp(-4 nu t) for the
// (sin x cos y, -cos x sin y) mode on [0, 2pi]^2.
func TestTaylorGreenDecay(t *testing.T) {
	nu := 0.05
	l := 2 * math.Pi
	g := must(NewGrid(3, 3, 1, 6, l, l, 1, true, true, true))(t)
	s := must(NewSolver(g, nu, 0.005))(t)
	s.SetInitial(func(x, y, z float64) (float64, float64, float64) {
		return math.Sin(x) * math.Cos(y), -math.Cos(x) * math.Sin(y), 0
	})
	e0 := s.KineticEnergy()
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	e1 := s.KineticEnergy()
	want := e0 * math.Exp(-4*nu*s.Time)
	if math.Abs(e1-want)/want > 0.02 {
		t.Fatalf("energy %v want %v (ratio %v)", e1, want, e1/want)
	}
}

// TestWomersleyPhaseLag: an oscillating body force in a channel produces an
// oscillating flow whose amplitude is below the quasi-steady Poiseuille
// amplitude (inertia) — the defining Womersley effect. We check amplitude
// attenuation at moderate Womersley number.
func TestWomersleyAttenuation(t *testing.T) {
	nu := 0.05
	lz := 1.0
	omega := 2 * math.Pi // Womersley alpha = (Lz/2) sqrt(omega/nu) ~ 5.6
	g := must(NewGrid(1, 1, 3, 5, 1, 1, lz, true, true, false))(t)
	s := must(NewSolver(g, nu, 0.002))(t)
	s.Force = func(tm, x, y, z float64) (float64, float64, float64) {
		return math.Cos(omega * tm), 0, 0
	}
	// Run two periods, record centerline max during the second.
	steps := int(2 * 2 * math.Pi / omega / s.Dt)
	var peak float64
	for i := 0; i < steps; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		if i > steps/2 {
			c := math.Abs(s.U[g.Idx(0, 0, g.Nz/2)])
			if c > peak {
				peak = c
			}
		}
	}
	quasiSteady := 1.0 * lz * lz / (8 * nu) // Poiseuille centerline for unit force
	if peak >= 0.8*quasiSteady {
		t.Fatalf("no inertial attenuation: peak %v vs quasi-steady %v", peak, quasiSteady)
	}
	if peak < 0.01*quasiSteady {
		t.Fatalf("flow nearly frozen: peak %v", peak)
	}
}

func TestDivergenceFreeAfterProjection(t *testing.T) {
	// Start from a strongly divergent field; one step must reduce max
	// divergence substantially.
	g := must(NewGrid(2, 2, 2, 5, 1, 1, 1, true, true, true))(t)
	s := must(NewSolver(g, 0.1, 0.01))(t)
	s.SetInitial(func(x, y, z float64) (float64, float64, float64) {
		return math.Sin(2 * math.Pi * x), math.Sin(2 * math.Pi * y), 0
	})
	div0 := s.MaxDivergence()
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	div1 := s.MaxDivergence()
	if div1 > div0/5 {
		t.Fatalf("projection ineffective: %g -> %g", div0, div1)
	}
}

// TestSolverRejectsBadParams: NewSolver's error names the argument it
// refuses.
func TestSolverRejectsBadParams(t *testing.T) {
	g := must(NewGrid(1, 1, 1, 2, 1, 1, 1, true, true, true))(t)
	for _, c := range []struct {
		nu, dt float64
		want   string
	}{{0, 0.1, "nu "}, {0.1, -1, "dt "}} {
		if _, err := NewSolver(g, c.nu, c.dt); err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("NewSolver(nu=%v, dt=%v) = %v, want an error naming %q", c.nu, c.dt, err, c.want)
		}
	}
}

// must unwraps a constructor's result, failing the test on its error.
func must[T any](v T, err error) func(testing.TB) T {
	return func(t testing.TB) T {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}
