package nektar1d

import (
	"math"
	"testing"
)

// Physiological-ish parameters in CGS-like units.
const (
	tA0   = 0.5   // cm^2
	tBeta = 4.0e4 // dyn/cm^3-ish stiffness
	tRho  = 1.06  // g/cm^3
	tKr   = 8.0   // friction
)

func restSegment(name string, n int) *Segment {
	return NewSegment(name, 10, n, tA0, tBeta, tRho, tKr)
}

func TestSegmentAtRestStaysAtRest(t *testing.T) {
	net := &Network{}
	s := net.AddSegment(restSegment("a", 41))
	net.Inlets = append(net.Inlets, &Inlet{Seg: s, Q: func(float64) float64 { return 0 }})
	net.Outlets = append(net.Outlets, &Outlet{Seg: s, WK: NewWindkessel(1e3, 1e-4)})
	if err := stepN(net, 200, 1e-4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.N; i++ {
		if math.Abs(s.A[i]-tA0) > 1e-9 || math.Abs(s.U[i]) > 1e-9 {
			t.Fatalf("node %d drifted: A=%v U=%v", i, s.A[i], s.U[i])
		}
	}
}

func TestWaveSpeedFormula(t *testing.T) {
	s := restSegment("a", 11)
	c := s.WaveSpeed(tA0)
	want := math.Sqrt(tBeta/(2*tRho)) * math.Pow(tA0, 0.25)
	if math.Abs(c-want) > 1e-12 {
		t.Fatalf("c = %v want %v", c, want)
	}
	if s.WaveSpeed(2*tA0) <= c {
		t.Fatal("wave speed must grow with area")
	}
}

func TestPressureTubeLaw(t *testing.T) {
	s := restSegment("a", 11)
	if p := s.Pressure(0); p != 0 {
		t.Fatalf("rest pressure = %v", p)
	}
	s.A[0] = 1.21 * tA0
	want := tBeta * (math.Sqrt(1.21*tA0) - math.Sqrt(tA0))
	if p := s.Pressure(0); math.Abs(p-want) > 1e-9 {
		t.Fatalf("p = %v want %v", p, want)
	}
}

func TestPulsePropagatesAtWaveSpeed(t *testing.T) {
	// A short inflow pulse must travel down the tube at ~c0.
	net := &Network{}
	s := net.AddSegment(NewSegment("tube", 20, 201, tA0, tBeta, tRho, 0))
	net.Inlets = append(net.Inlets, &Inlet{Seg: s, Q: func(tm float64) float64 {
		if tm < 5e-4 {
			return 2 * math.Sin(math.Pi*tm/5e-4)
		}
		return 0
	}})
	net.Outlets = append(net.Outlets, &Outlet{Seg: s, WK: NewWindkessel(1e4, 1e-6)})
	c0 := s.WaveSpeed(tA0)
	dt := 0.2 * s.Dx() / c0
	// Travel to ~70% of the tube.
	target := 0.7 * s.L
	steps := int(target / c0 / dt)
	if err := stepN(net, steps, dt); err != nil {
		t.Fatal(err)
	}
	// Locate the area peak.
	best, bestVal := 0, 0.0
	for i := 0; i < s.N; i++ {
		if d := s.A[i] - tA0; d > bestVal {
			best, bestVal = i, d
		}
	}
	if bestVal < 1e-6 {
		t.Fatal("pulse vanished")
	}
	got := float64(best) * s.Dx()
	if math.Abs(got-target)/target > 0.25 {
		t.Fatalf("pulse at %v cm, expected ~%v cm", got, target)
	}
}

func TestMassConservationInteriorOnly(t *testing.T) {
	// With zero boundary flux (closed-ish: zero inflow, huge outlet R), the
	// volume change over a step must match boundary fluxes to good accuracy.
	net := &Network{}
	s := net.AddSegment(NewSegment("tube", 10, 101, tA0, tBeta, tRho, 0))
	// Disturb the interior with a smooth bump (no net flow).
	for i := 0; i < s.N; i++ {
		x := float64(i) / float64(s.N-1)
		s.A[i] = tA0 * (1 + 0.05*math.Exp(-100*(x-0.5)*(x-0.5)))
	}
	net.Inlets = append(net.Inlets, &Inlet{Seg: s, Q: func(float64) float64 { return 0 }})
	net.Outlets = append(net.Outlets, &Outlet{Seg: s, WK: NewWindkessel(1e9, 1e-9)})
	v0 := s.Volume()
	dt := 1e-5
	var boundaryFlux float64
	for i := 0; i < 400; i++ {
		qin := s.Flow(0)
		qout := s.Flow(s.N - 1)
		if err := net.Step(dt); err != nil {
			t.Fatal(err)
		}
		boundaryFlux += dt * (qin - qout)
	}
	v1 := s.Volume()
	if math.Abs((v1-v0)-boundaryFlux) > 2e-4*v0 {
		t.Fatalf("dV = %v, boundary flux integral = %v", v1-v0, boundaryFlux)
	}
}

func bifurcationNetwork(t *testing.T, qIn func(float64) float64) (*Network, *Segment, *Segment, *Segment) {
	t.Helper()
	net := &Network{}
	parent := net.AddSegment(NewSegment("parent", 10, 81, tA0, tBeta, tRho, tKr))
	c1 := net.AddSegment(NewSegment("child1", 10, 81, tA0*0.6, tBeta, tRho, tKr))
	c2 := net.AddSegment(NewSegment("child2", 10, 81, tA0*0.6, tBeta, tRho, tKr))
	net.Inlets = append(net.Inlets, &Inlet{Seg: parent, Q: qIn})
	net.Junctions = append(net.Junctions, &Junction{Parent: parent, Children: []*Segment{c1, c2}})
	net.Outlets = append(net.Outlets,
		&Outlet{Seg: c1, WK: NewWindkessel(2e3, 1e-5)},
		&Outlet{Seg: c2, WK: NewWindkessel(2e3, 1e-5)},
	)
	return net, parent, c1, c2
}

func TestBifurcationConservesMassAndPressure(t *testing.T) {
	net, parent, c1, c2 := bifurcationNetwork(t, func(tm float64) float64 {
		return 1.5 * (1 - math.Exp(-tm/1e-3)) // smooth ramp to steady flow
	})
	dt := 2e-5
	if err := stepN(net, 4000, dt); err != nil {
		t.Fatal(err)
	}
	qp := parent.Flow(parent.N - 1)
	q1 := c1.Flow(0)
	q2 := c2.Flow(0)
	if math.Abs(qp-(q1+q2)) > 1e-8*(1+math.Abs(qp)) {
		t.Fatalf("mass not conserved: %v vs %v + %v", qp, q1, q2)
	}
	pp := parent.Pressure(parent.N - 1)
	p1 := c1.Pressure(0)
	p2 := c2.Pressure(0)
	if math.Abs(pp-p1) > 1e-6*(1+math.Abs(pp)) || math.Abs(pp-p2) > 1e-6*(1+math.Abs(pp)) {
		t.Fatalf("pressure not continuous: %v %v %v", pp, p1, p2)
	}
	// Symmetric children must split the flow evenly.
	if math.Abs(q1-q2) > 1e-6*(1+math.Abs(q1)) {
		t.Fatalf("asymmetric split: %v vs %v", q1, q2)
	}
}

func TestBifurcationSteadyFlowReachesOutlets(t *testing.T) {
	net, parent, _, _ := bifurcationNetwork(t, func(tm float64) float64 {
		return 1.0 * (1 - math.Exp(-tm/1e-3))
	})
	// Low outlet resistance keeps the network's compliance-resistance time
	// constant well below the simulated horizon.
	for _, o := range net.Outlets {
		o.WK.R = 100
	}
	dt := 2e-5
	// Wave transit over both generations is ~0.17 s; run 0.8 s so several
	// reflections settle the network to steady state.
	if err := stepN(net, 90000, dt); err != nil {
		t.Fatal(err)
	}
	// In steady state total outlet flow equals the inlet flow.
	qin := parent.Flow(0)
	var qout float64
	for _, o := range net.Outlets {
		qout += o.Seg.Flow(o.Seg.N - 1)
	}
	if math.Abs(qin-qout)/qin > 0.05 {
		t.Fatalf("steady state not reached: in %v out %v", qin, qout)
	}
}

func TestCFLGuard(t *testing.T) {
	net := &Network{}
	s := net.AddSegment(restSegment("a", 11))
	net.Inlets = append(net.Inlets, &Inlet{Seg: s, Q: func(float64) float64 { return 0 }})
	net.Outlets = append(net.Outlets, &Outlet{Seg: s, WK: NewWindkessel(1e3, 1e-4)})
	if err := net.Step(10); err == nil {
		t.Fatal("expected CFL violation error")
	}
}

func TestSegmentPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSegment("bad", 1, 2, tA0, tBeta, tRho, 0)
}

func TestWindkesselPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWindkessel(0, 1)
}
