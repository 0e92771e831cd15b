package nektar1d

import (
	"fmt"
	"math"
	"os"
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

// readFixture loads testdata/parent_tree.golden: treeTrajectory's output at
// commit 890b39d, the parent of the step arena, recorded before any edit to
// this package or linalg. It is never re-recorded: it is what "the arena did
// not move the 1D state" means.
func readFixture(t *testing.T) []string {
	t.Helper()
	raw, err := os.ReadFile("testdata/parent_tree.golden")
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSpace(string(raw)), "\n")
}

// TestArenaMatchesParentTrajectory: index-addressed buffers, the in-place LU
// and the hoisted guard names keep every operation in the parent's order, so
// the trajectory is the parent's bit for bit.
func TestArenaMatchesParentTrajectory(t *testing.T) {
	want := readFixture(t)
	net, inlet := fullTree(t)
	got := treeTrajectory(t, net, inlet, nil)
	if len(got) != len(want) {
		t.Fatalf("%d samples, fixture has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample %d: got %q, parent %q", i, got[i], want[i])
		}
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
