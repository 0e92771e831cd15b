package nektar1d

import (
	"math"
	"testing"
)

func TestFractalTreeTopology(t *testing.T) {
	for _, gen := range []int{0, 1, 2, 3} {
		spec := DefaultTreeSpec(gen)
		net, inlet, err := BuildFractalTree(spec)
		if err != nil {
			t.Fatal(err)
		}
		wantSegs := 1<<(gen+1) - 1
		if len(net.Segments) != wantSegs {
			t.Fatalf("gen %d: segments = %d want %d", gen, len(net.Segments), wantSegs)
		}
		if len(net.Outlets) != 1<<gen {
			t.Fatalf("gen %d: outlets = %d want %d", gen, len(net.Outlets), 1<<gen)
		}
		wantJunctions := 1<<gen - 1
		if len(net.Junctions) != wantJunctions {
			t.Fatalf("gen %d: junctions = %d want %d", gen, len(net.Junctions), wantJunctions)
		}
		if inlet.Seg.Name != "root" {
			t.Fatalf("inlet on %q", inlet.Seg.Name)
		}
	}
}

func TestFractalTreeMurraysLaw(t *testing.T) {
	// gamma = 3: r_d³ + r_d³ = r_p³, so A_d/A_p = 2^{-2/3}.
	spec := DefaultTreeSpec(2)
	net, _, err := BuildFractalTree(spec)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*Segment{}
	for _, s := range net.Segments {
		byName[s.Name] = s
	}
	ratio := byName["rootL"].A0 / byName["root"].A0
	want := math.Pow(2, -2.0/3)
	if math.Abs(ratio-want) > 1e-12 {
		t.Fatalf("area ratio = %v want %v", ratio, want)
	}
	// Total cross-section grows downstream (2 * 2^{-2/3} > 1), the
	// physiological velocity-slowing property.
	total0 := byName["root"].A0
	total1 := byName["rootL"].A0 + byName["rootR"].A0
	if total1 <= total0 {
		t.Fatalf("total area did not expand: %v -> %v", total0, total1)
	}
}

func TestFractalTreeRunsStably(t *testing.T) {
	spec := DefaultTreeSpec(3) // 15 segments
	spec.NodesPerSegment = 21
	net, inlet, err := BuildFractalTree(spec)
	if err != nil {
		t.Fatal(err)
	}
	inlet.Q = func(tm float64) float64 {
		return 2 * (1 - math.Exp(-tm/1e-3))
	}
	c0 := inlet.Seg.WaveSpeed(spec.RootArea)
	dt := 0.25 * inlet.Seg.Dx() / c0
	if err := stepN(net, 3000, dt); err != nil {
		t.Fatal(err)
	}
	// Flow reaches the terminals and splits evenly by symmetry.
	var qs []float64
	for _, o := range net.Outlets {
		qs = append(qs, o.Seg.Flow(o.Seg.N/2))
	}
	for i := 1; i < len(qs); i++ {
		if math.Abs(qs[i]-qs[0]) > 1e-6*(1+math.Abs(qs[0])) {
			t.Fatalf("asymmetric terminal flows: %v", qs)
		}
	}
	// Mass conservation at the root junction.
	root := inlet.Seg
	qRoot := root.Flow(root.N - 1)
	var qChildren float64
	for _, j := range net.Junctions {
		if j.Parent == root {
			for _, c := range j.Children {
				qChildren += c.Flow(0)
			}
		}
	}
	if math.Abs(qRoot-qChildren) > 1e-8*(1+math.Abs(qRoot)) {
		t.Fatalf("root junction leaks: %v vs %v", qRoot, qChildren)
	}
}

func TestTotalResistanceGrowsWithGenerations(t *testing.T) {
	// With Murray's law (area ratio 2^{-2/3}) the per-level series
	// resistance R ∝ L/A² shrinks by 0.8/0.63² ≈ 2.02 per branch but only
	// two branches share it, so each added generation contributes ≈ R_root
	// of extra input resistance — deeper (more arteriolar) trees present
	// HIGHER input resistance, the physiological fact that arterioles are
	// the main resistance vessels. The terminal windkessel bank halves per
	// generation but cannot offset that.
	r2 := TotalResistance(DefaultTreeSpec(2))
	r4 := TotalResistance(DefaultTreeSpec(4))
	if r2 <= 0 || r4 <= 0 {
		t.Fatalf("non-positive resistance: %v %v", r2, r4)
	}
	if r4 <= r2 {
		t.Fatalf("deeper tree should present higher input resistance: r2=%v r4=%v", r2, r4)
	}
	// The terminal bank effect in isolation: with zero viscous friction,
	// deeper trees must present LOWER resistance (pure parallelization).
	frictionless := DefaultTreeSpec(2)
	frictionless.Kr = 1e-9
	f2 := TotalResistance(frictionless)
	frictionless.Generations = 4
	f4 := TotalResistance(frictionless)
	if f4 >= f2 {
		t.Fatalf("frictionless deeper tree should parallelize: %v vs %v", f4, f2)
	}
}

func TestBuildFractalTreeRejectsBadSpec(t *testing.T) {
	spec := DefaultTreeSpec(2)
	spec.AreaExponent = 0
	if _, _, err := BuildFractalTree(spec); err == nil {
		t.Fatal("bad exponent accepted")
	}
	spec = DefaultTreeSpec(-1)
	if _, _, err := BuildFractalTree(spec); err == nil {
		t.Fatal("negative generations accepted")
	}
}

func TestJunctionConservationPropertyRandomTrees(t *testing.T) {
	// Property: for random (asymmetric) bifurcation geometries under steady
	// inflow, every junction conserves mass and pressure exactly.
	for seed := int64(1); seed <= 5; seed++ {
		rng := newRand(seed)
		net := &Network{}
		aP := 0.4 + 0.6*rng()
		a1 := aP * (0.3 + 0.4*rng())
		a2 := aP * (0.3 + 0.4*rng())
		parent := net.AddSegment(NewSegment("p", 8, 61, aP, tBeta, tRho, tKr))
		c1 := net.AddSegment(NewSegment("c1", 8, 61, a1, tBeta, tRho, tKr))
		c2 := net.AddSegment(NewSegment("c2", 8, 61, a2, tBeta, tRho, tKr))
		net.Inlets = append(net.Inlets, &Inlet{Seg: parent, Q: func(tm float64) float64 {
			return 1.2 * (1 - math.Exp(-tm/1e-3))
		}})
		net.Junctions = append(net.Junctions, &Junction{Parent: parent, Children: []*Segment{c1, c2}})
		net.Outlets = append(net.Outlets,
			&Outlet{Seg: c1, WK: NewWindkessel(300, 1e-5)},
			&Outlet{Seg: c2, WK: NewWindkessel(300, 1e-5)},
		)
		if err := stepN(net, 2500, 2e-5); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		qp := parent.Flow(parent.N - 1)
		q1 := c1.Flow(0)
		q2 := c2.Flow(0)
		if d := qp - (q1 + q2); d > 1e-8*(1+qp) || d < -1e-8*(1+qp) {
			t.Fatalf("seed %d: mass leak %v", seed, d)
		}
		pp := parent.Pressure(parent.N - 1)
		if d := pp - c1.Pressure(0); d > 1e-6*(1+pp) || d < -1e-6*(1+pp) {
			t.Fatalf("seed %d: pressure jump %v", seed, d)
		}
		// The wider child carries more flow.
		if (a1 > a2) != (q1 > q2) {
			t.Fatalf("seed %d: flow split does not follow area: a=(%v,%v) q=(%v,%v)", seed, a1, a2, q1, q2)
		}
	}
}

// newRand returns a tiny deterministic xorshift generator.
func newRand(seed int64) func() float64 {
	s := uint64(seed)*2654435761 + 1
	return func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(s%1e9) / 1e9
	}
}
