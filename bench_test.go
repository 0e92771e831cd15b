// Benchmark and regeneration harness: one benchmark per table and figure of
// the paper's evaluation, plus TestTable*/TestFigure* entry points that print
// the reproduced rows/series under `go test -run 'TestTable|TestFigure' -v`.
package nektarg_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nektarg/internal/core"
	"nektarg/internal/dpd"
	"nektarg/internal/geometry"
	"nektarg/internal/mci"
	"nektarg/internal/mesh"
	"nektarg/internal/mpi"
	"nektarg/internal/nektar3d"
	"nektarg/internal/partition"
	"nektarg/internal/perfmodel"
	"nektarg/internal/platelet"
	"nektarg/internal/simd"
	"nektarg/internal/stats"
	"nektarg/internal/wpod"
	"time"
)

// ---------------------------------------------------------------------------
// Table 1: SIMD performance tuning speed-up factors.
// Paper: z=x*y 2.00x (XT5) / 3.40x (BG/P); Σxyz 2.53/1.60; Σxyy 4.00/2.25.
// We measure the tuned-vs-scalar ratio of the same three kernels in Go.
// ---------------------------------------------------------------------------

const table1N = 4096 // in-cache vectors, as the paper stresses

func table1Vectors() (x, y, z []float64) {
	rng := rand.New(rand.NewSource(42))
	x = make([]float64, table1N)
	y = make([]float64, table1N)
	z = make([]float64, table1N)
	for i := 0; i < table1N; i++ {
		x[i], y[i], z[i] = rng.Float64(), rng.Float64(), rng.Float64()
	}
	return
}

func BenchmarkTable1_Mul_Scalar(b *testing.B) {
	x, y, z := table1Vectors()
	b.SetBytes(3 * 8 * table1N)
	for i := 0; i < b.N; i++ {
		simd.MulScalar(z, x, y)
	}
}

func BenchmarkTable1_Mul_Tuned(b *testing.B) {
	x, y, z := table1Vectors()
	b.SetBytes(3 * 8 * table1N)
	for i := 0; i < b.N; i++ {
		simd.MulTuned(z, x, y)
	}
}

var benchSink float64

func BenchmarkTable1_Dot3_Scalar(b *testing.B) {
	x, y, z := table1Vectors()
	b.SetBytes(3 * 8 * table1N)
	for i := 0; i < b.N; i++ {
		benchSink = simd.Dot3Scalar(x, y, z)
	}
}

func BenchmarkTable1_Dot3_Tuned(b *testing.B) {
	x, y, z := table1Vectors()
	b.SetBytes(3 * 8 * table1N)
	for i := 0; i < b.N; i++ {
		benchSink = simd.Dot3Tuned(x, y, z)
	}
}

func BenchmarkTable1_DotSq_Scalar(b *testing.B) {
	x, y, _ := table1Vectors()
	b.SetBytes(2 * 8 * table1N)
	for i := 0; i < b.N; i++ {
		benchSink = simd.DotSqScalar(x, y)
	}
}

func BenchmarkTable1_DotSq_Tuned(b *testing.B) {
	x, y, _ := table1Vectors()
	b.SetBytes(2 * 8 * table1N)
	for i := 0; i < b.N; i++ {
		benchSink = simd.DotSqTuned(x, y)
	}
}

// TestTable1 measures and prints the tuned/scalar speed-up factors next to
// the paper's SIMD factors.
func TestTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	x, y, z := table1Vectors()
	// Best-of-several fixed-size timing loops: robust against concurrent
	// load from benchmarks running in the same invocation.
	const (
		iters = 2000
		reps  = 7
	)
	best := func(fn func()) time.Duration {
		bestD := time.Duration(math.MaxInt64)
		for r := 0; r < reps; r++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				fn()
			}
			if d := time.Since(start); d < bestD {
				bestD = d
			}
		}
		return bestD
	}
	ratio := func(scalar, tuned func()) float64 {
		return float64(best(scalar)) / float64(best(tuned))
	}
	r1 := ratio(func() { simd.MulScalar(z, x, y) }, func() { simd.MulTuned(z, x, y) })
	r2 := ratio(func() { benchSink = simd.Dot3Scalar(x, y, z) }, func() { benchSink = simd.Dot3Tuned(x, y, z) })
	r3 := ratio(func() { benchSink = simd.DotSqScalar(x, y) }, func() { benchSink = simd.DotSqTuned(x, y) })
	fmt.Println("Table 1: kernel tuning speed-up (this host; paper: Cray XT5 / BG per column)")
	fmt.Printf("  z[i]=x[i]*y[i]      %5.2fx   (paper 2.00 / 3.40)\n", r1)
	fmt.Printf("  a=Σ x[i]*y[i]*z[i]  %5.2fx   (paper 2.53 / 1.60)\n", r2)
	fmt.Printf("  a=Σ x[i]*y[i]*y[i]  %5.2fx   (paper 4.00 / 2.25)\n", r3)
	// Shape check: under `go test ./...` other packages run concurrently
	// and best-of-N timing still jitters, so the assertion only catches a
	// catastrophic pessimization; the benchmarks above give the clean
	// numbers. The paper's own factors differ 2x between its two machines,
	// so only the sign of the effect is portable.
	if r2 < 0.6 || r3 < 0.6 {
		t.Errorf("tuned reduction kernels regressed badly: %v, %v", r2, r3)
	}
}

// ---------------------------------------------------------------------------
// Table 2: partitioning strategies.
// ---------------------------------------------------------------------------

func BenchmarkTable2_FaceOnlyPartition(b *testing.B) {
	m := mesh.CarotidTets(16, 4, 4)
	g := m.AdjacencyGraph(mesh.FaceOnly, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts := partition.Partition(g, 16)
		benchSink = partition.Evaluate(g, parts, 16).EdgeCut
	}
}

func BenchmarkTable2_FullAdjacencyPartition(b *testing.B) {
	m := mesh.CarotidTets(16, 4, 4)
	g := m.AdjacencyGraph(mesh.FullAdjacency, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts := partition.Partition(g, 16)
		benchSink = partition.Evaluate(g, parts, 16).EdgeCut
	}
}

// TestTable2 prints Table 2 and checks that it is a function of the code
// alone: two calls agree cell for cell, and (b) beats (a) at every core
// count.
func TestTable2(t *testing.T) {
	first, second := perfmodel.Table2(), perfmodel.Table2()
	fmt.Println(first)
	if got, want := second.String(), first.String(); got != want {
		t.Fatalf("two Table2 calls disagree:\n%s\n%s", want, got)
	}
	for i := 0; i+1 < len(first.Rows); i += 2 {
		a, b := first.Rows[i], first.Rows[i+1]
		if b.Measured >= a.Measured {
			t.Errorf("%s: %.2f not below %s: %.2f", b.Label, b.Measured, a.Label, a.Measured)
		}
	}
}

// ---------------------------------------------------------------------------
// Tables 3-5 and §4.1: machine-model replays.
// ---------------------------------------------------------------------------

func BenchmarkTable3_WeakScalingReplay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink = perfmodel.Table3().Rows[0].Measured
	}
}

func BenchmarkTable4_StrongScalingReplay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink = perfmodel.Table4().Rows[0].Measured
	}
}

func BenchmarkTable5_CoupledScalingReplay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink = perfmodel.Table5().Rows[0].Measured
	}
}

func TestTable3(t *testing.T) { fmt.Println(perfmodel.Table3()) }
func TestTable4(t *testing.T) { fmt.Println(perfmodel.Table4()) }
func TestTable5(t *testing.T) { fmt.Println(perfmodel.Table5()) }
func TestExtendedRuns(t *testing.T) {
	fmt.Println(perfmodel.ExtendedWeakScaling())
}

// ---------------------------------------------------------------------------
// Figure 7: WPOD ensemble average + Gaussian fluctuation PDF from a DPD
// channel flow.
// ---------------------------------------------------------------------------

// fig7Snapshots runs a small DPD channel and samples velocity snapshots.
func fig7Snapshots(t testing.TB, nSnap, nts int) [][]float64 {
	p := dpd.DefaultParams(1)
	p.Dt = 0.005
	sys := must(dpd.NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 6, Y: 6, Z: 4}, [3]bool{true, true, false}))(t)
	sys.Walls = []dpd.Wall{
		&dpd.PlaneWall{Point: geometry.Vec3{}, Norm: geometry.Vec3{Z: 1}},
		&dpd.PlaneWall{Point: geometry.Vec3{Z: 4}, Norm: geometry.Vec3{Z: -1}},
	}
	sys.External = func(tm float64, _ *dpd.Particle) geometry.Vec3 {
		return geometry.Vec3{X: 0.08 * (1 + math.Sin(2*math.Pi*tm/4))}
	}
	sys.FillRandom(432, 0)
	sys.Run(400)
	bins := dpd.NewBinGrid(geometry.Vec3{}, geometry.Vec3{X: 6, Y: 6, Z: 4}, 1, 1, 8)
	snaps := make([][]float64, 0, nSnap)
	for k := 0; k < nSnap; k++ {
		for s := 0; s < nts; s++ {
			sys.VVStep()
			bins.Accumulate(sys)
		}
		snaps = append(snaps, dpd.Component(bins.Snapshot(), 0))
	}
	return snaps
}

func BenchmarkFig7_WPOD(b *testing.B) {
	snaps := fig7Snapshots(b, 30, 25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := wpod.Analyze(snaps, wpod.Options{})
		if err != nil {
			b.Fatal(err)
		}
		benchSink = r.Eigenvalues[0]
	}
}

func TestFigure7(t *testing.T) {
	snaps := fig7Snapshots(t, 40, 30)
	r, err := wpod.Analyze(snaps, wpod.Options{})
	if err != nil {
		t.Fatal(err)
	}
	flucts := r.Fluctuations()
	var mom stats.Moments
	for _, row := range flucts {
		mom.AddAll(row)
	}
	sigma := mom.StdDev()
	h := stats.NewHistogram(-4*sigma, 4*sigma, 30)
	for _, row := range flucts {
		h.AddAll(row)
	}
	good := h.L2PDFDistance(0, sigma)
	bad := h.L2PDFDistance(0, 3*sigma)
	fmt.Printf("Figure 7: WPOD of DPD channel flow\n")
	fmt.Printf("  cutoff %d modes of %d; fluctuation sigma = %.4f\n", r.Cutoff, len(r.Eigenvalues), sigma)
	fmt.Printf("  PDF-vs-Gaussian L2 distance: matched sigma %.4f, 3x-wrong sigma %.4f\n", good, bad)
	if good >= bad {
		t.Errorf("fluctuation PDF does not fit a Gaussian better than a mismatched one")
	}
	if r.Cutoff >= len(r.Eigenvalues)/2 {
		t.Errorf("no spectral separation: cutoff %d of %d", r.Cutoff, len(r.Eigenvalues))
	}
}

// ---------------------------------------------------------------------------
// Figure 8: POD eigenspectrum of a time-periodically forced DPD pipe flow.
// ---------------------------------------------------------------------------

func fig8Snapshots(t testing.TB, nSnap, nts int) ([][]float64, [][]float64) {
	p := dpd.DefaultParams(1)
	p.Dt = 0.005
	r := 3.0
	sys := must(dpd.NewSystem(p,
		geometry.Vec3{X: -r - 0.5, Y: -r - 0.5, Z: 0},
		geometry.Vec3{X: r + 0.5, Y: r + 0.5, Z: 4},
		[3]bool{false, false, true}))(t)
	sys.Walls = []dpd.Wall{&dpd.CylinderWall{Center: geometry.Vec3{}, Radius: r}}
	rng := rand.New(rand.NewSource(3))
	for len(sys.Particles) < 340 {
		pos := geometry.Vec3{X: (rng.Float64() - 0.5) * 2 * r, Y: (rng.Float64() - 0.5) * 2 * r, Z: rng.Float64() * 4}
		if math.Hypot(pos.X, pos.Y) < r-0.2 {
			sys.AddParticle(pos, geometry.Vec3{}, 0, false)
		}
	}
	sys.External = func(tm float64, _ *dpd.Particle) geometry.Vec3 {
		return geometry.Vec3{Z: 0.3 * (1 + 0.8*math.Sin(2*math.Pi*tm/3))}
	}
	sys.Run(400)
	bins := dpd.NewBinGrid(geometry.Vec3{X: -r, Y: -0.75, Z: 0}, geometry.Vec3{X: r, Y: 0.75, Z: 4}, 6, 1, 2)
	var sz, sx [][]float64
	for k := 0; k < nSnap; k++ {
		for s := 0; s < nts; s++ {
			sys.VVStep()
			bins.Accumulate(sys)
		}
		snap := bins.Snapshot()
		sz = append(sz, dpd.Component(snap, 2))
		sx = append(sx, dpd.Component(snap, 0))
	}
	return sz, sx
}

func BenchmarkFig8_Eigenspectrum(b *testing.B) {
	sz, _ := fig8Snapshots(b, 24, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := wpod.Analyze(sz, wpod.Options{})
		if err != nil {
			b.Fatal(err)
		}
		benchSink = r.Eigenvalues[0]
	}
}

func TestFigure8(t *testing.T) {
	sz, sx := fig8Snapshots(t, 36, 25)
	rz, err := wpod.Analyze(sz, wpod.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rx, err := wpod.Analyze(sx, wpod.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Println("Figure 8: POD eigenspectra, pulsatile DPD pipe flow")
	fmt.Printf("%4s %14s %14s\n", "k", "lambda_z", "lambda_x")
	for k := 0; k < 8; k++ {
		fmt.Printf("%4d %14.5e %14.5e\n", k+1, rz.Eigenvalues[k], rx.Eigenvalues[k])
	}
	// Paper shape: streamwise low modes tower over the flat tail; the
	// transverse component is noise-dominated with far less energy in the
	// leading mode.
	if rz.Eigenvalues[0] < 5*rz.Eigenvalues[4] {
		t.Errorf("streamwise spectrum not separated: %v", rz.Eigenvalues[:6])
	}
	if rz.Eigenvalues[0] < 2*rx.Eigenvalues[0] {
		t.Errorf("streamwise mode should dominate transverse: %v vs %v",
			rz.Eigenvalues[0], rx.Eigenvalues[0])
	}
}

// ---------------------------------------------------------------------------
// Figure 9: interface continuity of the coupled simulation.
// ---------------------------------------------------------------------------

// fig9Setup builds a two-patch + DPD coupled system.
func fig9Setup(t testing.TB) (*core.Metasolver, *core.ContinuumPatch, *core.ContinuumPatch, *core.AtomisticRegion) {
	mk := func() *nektar3d.Solver {
		g := must(nektar3d.NewGrid(3, 1, 2, 4, 1.5, 1, 1, false, true, false))(t)
		s := must(nektar3d.NewSolver(g, 0.5, 0.01))(t)
		s.Force = func(_, _, _, _ float64) (float64, float64, float64) { return 1, 0, 0 }
		return s
	}
	sa, sb := mk(), mk()
	prof := func(x, y, z float64) (float64, float64, float64) { return z * (1 - z), 0, 0 }
	sa.SetInitial(prof)
	sb.SetInitial(prof)
	bc := func(_, x, y, z float64) (float64, float64, float64) { return prof(x, y, z) }
	sa.VelBC = bc
	sb.VelBC = bc
	pa := core.NewContinuumPatch("A", sa, geometry.Vec3{})
	pb := core.NewContinuumPatch("B", sb, geometry.Vec3{X: 1})

	p := dpd.DefaultParams(1)
	p.Dt = 0.005
	sys := must(dpd.NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 10, Y: 10, Z: 10}, [3]bool{false, true, true}))(t)
	sys.FillRandom(2000, 0)
	inflow := &dpd.FluxBC{Axis: 0, AtMax: false, Rho: 3}
	outflow := &dpd.FluxBC{Axis: 0, AtMax: true, Rho: 3}
	sys.Inflows = []*dpd.FluxBC{inflow, outflow}
	region := &core.AtomisticRegion{
		Name: "insert", Sys: sys,
		Origin:        geometry.Vec3{X: 1.6, Y: 0.4, Z: 0.4},
		NSUnits:       core.Units{L: 1e-3, Nu: 0.5},
		DPDUnits:      core.Units{L: 2e-5, Nu: 0.2},
		VelocityBoost: 250,
		Interfaces: []*geometry.Surface{geometry.PlanarRect("g", geometry.Vec3{},
			geometry.Vec3{Y: 10}, geometry.Vec3{Z: 10}, 3, 3)},
		FluxFaces: []*dpd.FluxBC{inflow},
	}
	// Pre-develop the DPD mean flow.
	for i := range sys.Particles {
		sys.Particles[i].Vel.X += 0.25 * core.VelocityScale(region.NSUnits, region.DPDUnits) * region.VelocityBoost
	}
	m := core.NewMetasolver()
	m.Patches = []*core.ContinuumPatch{pa, pb}
	m.Couplings = []*core.PatchCoupling{
		{Donor: pa, Receiver: pb, Face: "x0"},
		{Donor: pb, Receiver: pa, Face: "x1"},
	}
	m.Atomistic = []*core.AtomisticRegion{region}
	return m, pa, pb, region
}

func BenchmarkFig9_InterfaceContinuity(b *testing.B) {
	m, _, _, region := fig9Setup(b)
	if err := m.Advance(1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rms, _ := m.InterfaceContinuity(region, 2.5)
		benchSink = rms
	}
}

func TestFigure9(t *testing.T) {
	m, pa, pb, region := fig9Setup(t)
	if err := m.Advance(4); err != nil {
		t.Fatal(err)
	}
	// Continuum-continuum continuity on the overlap.
	var rms float64
	var n int
	for _, x := range []float64{1.1, 1.25, 1.4} {
		for _, z := range []float64{0.25, 0.5, 0.75} {
			g := geometry.Vec3{X: x, Y: 0.5, Z: z}
			ua, va, wa := pa.SampleVelocity(g)
			ub, vb, wb := pb.SampleVelocity(g)
			d := geometry.Vec3{X: ua - ub, Y: va - vb, Z: wa - wb}
			rms += d.Norm2()
			n++
		}
	}
	cc := math.Sqrt(rms / float64(n))
	ca, cn := m.InterfaceContinuity(region, 2.5)
	fmt.Printf("Figure 9: interface continuity after %d exchanges\n", m.Exchanges)
	fmt.Printf("  continuum-continuum overlap RMS: %.3e (velocity scale 0.25)\n", cc)
	fmt.Printf("  continuum-atomistic RMS: %.3e over %d probes (DPD velocity scale %.2f)\n",
		ca, cn, 0.25*core.VelocityScale(region.NSUnits, region.DPDUnits)*region.VelocityBoost)
	if cc > 0.01 {
		t.Errorf("continuum-continuum mismatch %v too large", cc)
	}
	scale := 0.25 * core.VelocityScale(region.NSUnits, region.DPDUnits) * region.VelocityBoost
	if ca > scale {
		t.Errorf("continuum-atomistic mismatch %v exceeds the velocity scale %v", ca, scale)
	}
}

// ---------------------------------------------------------------------------
// Figure 10: platelet aggregation / clot growth.
// ---------------------------------------------------------------------------

func fig10Run(t testing.TB, steps int) []int {
	p := dpd.DefaultParams(2)
	p.Dt = 0.005
	p.KBT = 0.2
	sys := must(dpd.NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 8, Y: 8, Z: 4}, [3]bool{true, true, false}))(t)
	sys.Walls = []dpd.Wall{
		&dpd.PlaneWall{Point: geometry.Vec3{}, Norm: geometry.Vec3{Z: 1}},
		&dpd.PlaneWall{Point: geometry.Vec3{Z: 4}, Norm: geometry.Vec3{Z: -1}},
	}
	sys.FillRandom(500, 0)
	var sites []geometry.Vec3
	for x := 3.0; x <= 5; x++ {
		sites = append(sites, geometry.Vec3{X: x, Y: 4, Z: 0.3})
	}
	clot := must(platelet.NewModel(1, sites, 0.1))(t)
	sys.Bonded = append(sys.Bonded, clot)
	rng := rand.New(rand.NewSource(9))
	must(platelet.SeedPlatelets(sys, clot, 50,
		geometry.Vec3{X: 0.5, Y: 0.5, Z: 0.3}, geometry.Vec3{X: 7.5, Y: 7.5, Z: 2.5}, rng.Float64))(t)
	var curve []int
	for i := 0; i < steps/50; i++ {
		sys.Run(50)
		_, _, adhered := clot.Counts(sys)
		curve = append(curve, adhered)
	}
	return curve
}

func BenchmarkFig10_ClotGrowth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := fig10Run(b, 200)
		benchSink = float64(c[len(c)-1])
	}
}

func TestFigure10(t *testing.T) {
	curve := fig10Run(t, 800)
	fmt.Printf("Figure 10: clot growth (adhered platelets per 50 DPD steps)\n  %v\n", curve)
	if curve[len(curve)-1] < 5 {
		t.Errorf("clot did not grow: %v", curve)
	}
	if curve[len(curve)-1] <= curve[0] {
		t.Errorf("no growth over the run: %v", curve)
	}
}

// ---------------------------------------------------------------------------
// MCI exchange throughput: the three-step gather/root-swap/scatter protocol.
// ---------------------------------------------------------------------------

func BenchmarkMCIThreeStepExchange(b *testing.B) {
	cfg := mci.Config{Tasks: []mci.TaskSpec{{Name: "a", Ranks: 4}, {Name: "b", Ranks: 4}}}
	payload := make([]float64, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := mpi.Run(8, func(w *mpi.Comm) {
			h, err := mci.Build(w, cfg)
			if err != nil {
				panic(err)
			}
			g, err := mci.NewInterfaceGroup(h, "io", true)
			if err != nil {
				panic(err)
			}
			peer := map[int]int{0: 4, 1: 0}[h.Task]
			counts := []int{1024, 1024, 1024, 1024}
			for round := 0; round < 10; round++ {
				g.Exchange(h.World, peer, g.Salt(), payload, counts)
			}
		})
		if err != nil {
			b.Fatal(err)
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
