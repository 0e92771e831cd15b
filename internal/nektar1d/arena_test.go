package nektar1d

import (
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"nektarg/internal/monitor"
	"nektarg/internal/telemetry"
)

// fullTree builds the tree the `full` benchmark workload and every config
// outlet attach: 3 generations (15 segments, 7 junctions, 8 windkessels) at
// 21 nodes per segment.
func fullTree(t testing.TB) (*Network, *Inlet) {
	t.Helper()
	spec := DefaultTreeSpec(3)
	spec.NodesPerSegment = 21
	net, inlet, err := BuildFractalTree(spec)
	if err != nil {
		t.Fatal(err)
	}
	return net, inlet
}

const (
	fixtureSteps = 6000
	fixtureDt    = 5e-5 // core.OutletDt1D
)

// treeTrajectory steps the full tree from rest under a pulsatile inlet (three
// 0.1 s beats, long enough for the pulse to charge the windkessels) and
// samples it every 1000 steps: inlet pressure, the 8 windkessel pressures,
// (A, U) at a few interior nodes and the boundary-flux integrals. One line
// per sample, "<step> <name> <hex float>"; after is called after every step.
func treeTrajectory(t testing.TB, net *Network, inlet *Inlet, after func()) []string {
	t.Helper()
	inlet.Q = func(tm float64) float64 { return 1 - math.Cos(2*math.Pi*tm/0.1) }
	var lines []string
	put := func(name string, v float64) {
		lines = append(lines, fmt.Sprintf("%d %s %s", net.Steps, name, strconv.FormatFloat(v, 'x', -1, 64)))
	}
	for net.Steps < fixtureSteps {
		if err := net.Step(fixtureDt); err != nil {
			t.Fatalf("step %d: %v", net.Steps, err)
		}
		if after != nil {
			after()
		}
		if net.Steps%1000 != 0 {
			continue
		}
		put("inlet.p", inlet.Seg.Pressure(0))
		for i, o := range net.Outlets {
			put(fmt.Sprintf("wk%d.p", i), o.WK.P)
		}
		for _, s := range net.Segments {
			switch s.Name {
			case "root", "rootL", "rootRL", "rootLRR":
				put(s.Name+".A", s.A[s.N/2])
				put(s.Name+".U", s.U[s.N/2])
			}
		}
		put("invol", net.InVol)
		put("outvol", net.OutVol)
	}
	return lines
}

// fixtureSample is one parsed line of testdata/parent_tree.golden.
type fixtureSample struct {
	key   string // "<step> <name>"
	name  string
	value float64
}

func parseSamples(t *testing.T, lines []string) []fixtureSample {
	t.Helper()
	out := make([]fixtureSample, len(lines))
	for i, l := range lines {
		f := strings.Fields(l)
		if len(f) != 3 {
			t.Fatalf("sample %d: %q is not \"<step> <name> <value>\"", i, l)
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		out[i] = fixtureSample{key: f[0] + " " + f[1], name: f[1], value: v}
	}
	return out
}

// readFixture loads testdata/parent_tree.golden: treeTrajectory's output at
// commit 890b39d, the parent of the step arena, recorded before any edit to
// this package or linalg. It is never re-recorded. The arena alone reproduced
// it with == (index-addressed buffers, the in-place LU and the hoisted guard
// names keep every operation in the parent's order); the wave speed as two
// square roots and the junction's stopping rule then moved the trajectory at
// round-off level, which is what the tolerance below bounds.
func readFixture(t *testing.T) []fixtureSample {
	t.Helper()
	raw, err := os.ReadFile("testdata/parent_tree.golden")
	if err != nil {
		t.Fatal(err)
	}
	return parseSamples(t, strings.Split(strings.TrimSpace(string(raw)), "\n"))
}

// junctionDefects returns, for the junction's current boundary states, the
// mass imbalance relative to Σ a_b·c_b and the worst pressure jump relative
// to β(√a + √A0): the scales the Newton's stopping rule works in.
func junctionDefects(j *Junction) (mass, pressure float64) {
	p := j.Parent
	end := p.N - 1
	q, scale := p.Flow(end), p.A[end]*p.WaveSpeed(p.A[end])
	pScale := p.Beta * (math.Sqrt(p.A[end]) + math.Sqrt(p.A0))
	for _, c := range j.Children {
		q -= c.Flow(0)
		scale += c.A[0] * c.WaveSpeed(c.A[0])
		pressure = math.Max(pressure, math.Abs(p.Pressure(end)-c.Pressure(0))/pScale)
	}
	return math.Abs(q) / scale, pressure
}

// TestTreeTracksParentTrajectory runs the fixture scenario with the junction
// Newton capped at 3 iterations, so finishing at all means no solve of the
// 42 000 needed more (mean ≤ 3, the real cap of 80 never in sight). Every
// sample stays within 1e-9 of the parent's, relative to the largest value
// that quantity takes in the fixture (a windkessel still at rest is 0 here
// and −2e-12 of math.Pow noise there), and after every step every junction
// conserves mass and matches pressures to round-off.
func TestTreeTracksParentTrajectory(t *testing.T) {
	CapJunctionNewton(t, 3)
	want := readFixture(t)
	net, inlet := fullTree(t)
	got := parseSamples(t, treeTrajectory(t, net, inlet, func() {
		for _, j := range net.Junctions {
			if mass, pressure := junctionDefects(j); mass > 1e-14 || pressure > 1e-14 {
				t.Fatalf("step %d, junction at %q: mass defect %g, pressure jump %g (relative), want round-off",
					net.Steps, j.Parent.Name, mass, pressure)
			}
		}
	}))
	if len(got) != len(want) {
		t.Fatalf("%d samples, fixture has %d", len(got), len(want))
	}
	scale := map[string]float64{}
	for _, w := range want {
		scale[w.name] = math.Max(scale[w.name], math.Abs(w.value))
	}
	var worst float64
	for i, w := range want {
		if got[i].key != w.key {
			t.Fatalf("sample %d is %q, fixture has %q", i, got[i].key, w.key)
		}
		rel := math.Abs(got[i].value-w.value) / scale[w.name]
		worst = math.Max(worst, rel)
		if rel > 1e-9 {
			t.Errorf("%s: %v, parent %v: off by %g of the quantity's scale", w.key, got[i].value, w.value, rel)
		}
	}
	t.Logf("largest deviation from the parent trajectory: %.2g relative", worst)
}

// TestJunctionStallIsAnError: a junction that cannot meet the stopping rule
// within the cap refuses the step with ErrJunctionStalled instead of
// advancing on whatever the last iterate held.
func TestJunctionStallIsAnError(t *testing.T) {
	CapJunctionNewton(t, 1)
	net, inlet := fullTree(t)
	inlet.Q = func(float64) float64 { return 1 }
	err := net.Run(fixtureSteps, fixtureDt)
	if !errors.Is(err, ErrJunctionStalled) {
		t.Fatalf("one Newton iteration per junction under a step inflow: err = %v, want ErrJunctionStalled", err)
	}
	if !strings.Contains(err.Error(), `"root"`) {
		t.Errorf("error %q does not name the junction", err)
	}
	if net.Steps == 0 {
		t.Fatal("stalled on the first step: the tree at rest needs no second iteration")
	}
	// A refused step leaves segments, windkessels and clock where the last
	// good one put them.
	before := net.CaptureState()
	if err := net.Step(fixtureDt); !errors.Is(err, ErrJunctionStalled) {
		t.Fatalf("retry: err = %v", err)
	}
	if after := net.CaptureState(); !reflect.DeepEqual(before, after) {
		t.Fatal("a refused step moved the network state")
	}
}

// TestStepAllocatesNothing: once the arena exists a healthy step touches the
// heap neither bare nor with the telemetry recorder and the watchdogs on.
func TestStepAllocatesNothing(t *testing.T) {
	for _, observed := range []bool{false, true} {
		net, inlet := fullTree(t)
		inlet.Q = func(tm float64) float64 { return 1 - math.Cos(2*math.Pi*tm/0.1) }
		health := monitor.NewHealth()
		if observed {
			net.Rec = telemetry.NewRegistry().NewRecorder("1d:test")
			net.Watch = health.Watch("1d:test")
		}
		if err := net.Run(10, fixtureDt); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(500, func() {
			if err := net.Step(fixtureDt); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("observers=%v: Step allocates %.1f objects, want 0", observed, allocs)
		}
		if n := len(health.Events()); n != 0 {
			t.Errorf("observers=%v: healthy run recorded %d health events", observed, n)
		}
	}
}

// TestStepFollowsRewiring: the arena is laid out for one wiring; a network
// that grows between two steps gets a new layout, and one that cannot be laid
// out (a junction onto a segment the network does not hold) is an error, not
// an index out of range.
func TestStepFollowsRewiring(t *testing.T) {
	net := &Network{}
	root := net.AddSegment(restSegment("root", 21))
	net.Inlets = append(net.Inlets, &Inlet{Seg: root, Q: func(tm float64) float64 { return 1 - math.Exp(-tm/1e-3) }})
	wk := &Outlet{Seg: root, WK: NewWindkessel(400, 2.5e-4)}
	net.Outlets = append(net.Outlets, wk)
	if err := net.Run(50, fixtureDt); err != nil {
		t.Fatal(err)
	}

	// Extend the tube: root now ends in a one-child junction and the
	// windkessel moves to the new segment.
	tail := net.AddSegment(restSegment("tail", 31))
	net.Junctions = append(net.Junctions, &Junction{Parent: root, Children: []*Segment{tail}})
	wk.Seg = tail
	if err := net.Run(4000, fixtureDt); err != nil {
		t.Fatalf("stepping the grown network: %v", err)
	}
	if q := tail.Flow(tail.N / 2); q < 0.1 {
		t.Fatalf("flow never entered the added segment: Q = %v", q)
	}
	if d := root.Flow(root.N-1) - tail.Flow(0); math.Abs(d) > 1e-8 {
		t.Fatalf("added junction leaks %v", d)
	}

	// Resizing a segment's arrays behind the arena's back is caught too.
	tail.A = tail.A[:10]
	if err := net.Step(fixtureDt); err == nil {
		t.Fatal("segment with N=31 and 10 area nodes stepped")
	}
	tail.A = tail.A[:tail.N]

	stray := restSegment("stray", 21)
	net.Junctions = append(net.Junctions, &Junction{Parent: tail, Children: []*Segment{stray}})
	err := net.Step(fixtureDt)
	if err == nil || !strings.Contains(err.Error(), `"stray"`) {
		t.Fatalf("junction onto an unregistered segment: err = %v", err)
	}
}
