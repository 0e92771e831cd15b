package nektar1d

import (
	"math"
	"strings"
	"testing"
)

// pulsedNetwork builds a one-segment tree driven by a pulsatile inlet into a
// windkessel outlet — the minimal wiring where both the (A, U) fields and the
// RC capacitor pressure evolve, so a resume that loses either is caught.
func pulsedNetwork() *Network {
	net := &Network{}
	s := net.AddSegment(restSegment("root", 41))
	net.Inlets = append(net.Inlets, &Inlet{Seg: s, Q: func(t float64) float64 {
		return 2 * math.Sin(2*math.Pi*10*t) * math.Exp(-t)
	}})
	net.Outlets = append(net.Outlets, &Outlet{Seg: s, WK: NewWindkessel(100, 1e-4)})
	return net
}

// stepN advances net by steps steps of size dt, stopping at the first error.
func stepN(net *Network, steps int, dt float64) error {
	for i := 0; i < steps; i++ {
		if err := net.Step(dt); err != nil {
			return err
		}
	}
	return nil
}

// TestNetworkResumeIsBitIdentical is the windkessel-pressure regression: a
// network restored from CaptureState and stepped m more times must match a
// straight n+m run bit-for-bit. The pre-checkpoint code omitted Windkessel.P
// from the captured state, so the peripheral impedance silently snapped back
// to t = 0 on resume — close enough to look plausible, wrong enough to break
// restart determinism.
func TestNetworkResumeIsBitIdentical(t *testing.T) {
	const dt = 1e-4
	// The pulse needs L/c0 = 0.087 s to reach the outlet; capturing before
	// then checkpoints a windkessel that is still at (or within round-off
	// of) zero, and losing it on resume would go unnoticed.
	const n, m = 1000, 200

	straight := pulsedNetwork()
	if err := stepN(straight, n+m, dt); err != nil {
		t.Fatal(err)
	}

	first := pulsedNetwork()
	if err := stepN(first, n, dt); err != nil {
		t.Fatal(err)
	}
	st := first.CaptureState()
	if math.Abs(st.OutletP[0]) <= 1 {
		t.Fatalf("windkessel pressure %v at capture: not charged, the scenario does not exercise the regression", st.OutletP[0])
	}

	resumed := pulsedNetwork() // fresh wiring, as a restart rebuilds it from code
	if err := resumed.ApplyState(st); err != nil {
		t.Fatal(err)
	}
	if err := stepN(resumed, m, dt); err != nil {
		t.Fatal(err)
	}

	ws, wr := straight.Segments[0], resumed.Segments[0]
	for i := 0; i < ws.N; i++ {
		if ws.A[i] != wr.A[i] || ws.U[i] != wr.U[i] {
			t.Fatalf("node %d diverged after resume: A %v vs %v, U %v vs %v",
				i, wr.A[i], ws.A[i], wr.U[i], ws.U[i])
		}
	}
	if got, want := resumed.Outlets[0].WK.P, straight.Outlets[0].WK.P; got != want {
		t.Fatalf("windkessel pressure diverged after resume: %v want %v", got, want)
	}
	if resumed.Time != straight.Time || resumed.Steps != straight.Steps {
		t.Fatalf("clock diverged: t=%v steps=%d want t=%v steps=%d",
			resumed.Time, resumed.Steps, straight.Time, straight.Steps)
	}
}

// TestCaptureStateIsDeepCopy: mutating the live network after capture must
// not reach into the bundle (and vice versa) — a shallow capture would make
// every checkpoint in a retention window alias the newest state.
func TestCaptureStateIsDeepCopy(t *testing.T) {
	net := pulsedNetwork()
	if err := stepN(net, 50, 1e-4); err != nil {
		t.Fatal(err)
	}
	st := net.CaptureState()
	a0, u0, p0 := st.Segments[0].A[3], st.Segments[0].U[3], st.OutletP[0]
	if err := stepN(net, 50, 1e-4); err != nil {
		t.Fatal(err)
	}
	if st.Segments[0].A[3] != a0 || st.Segments[0].U[3] != u0 || st.OutletP[0] != p0 {
		t.Fatal("captured state aliases the live network")
	}
}

// TestApplyStateRejectsMismatchedTopology: every name/shape mismatch between
// a bundle and the rebuilt wiring is a loud error before any mutation.
func TestApplyStateRejectsMismatchedTopology(t *testing.T) {
	base := pulsedNetwork()
	if err := stepN(base, 10, 1e-4); err != nil {
		t.Fatal(err)
	}
	good := base.CaptureState()

	cases := []struct {
		name    string
		mutate  func(*NetworkState)
		target  func() *Network
		errPart string
	}{
		{"renamed segment", func(st *NetworkState) { st.Segments[0].Name = "ghost" },
			pulsedNetwork, `"ghost" not in network`},
		{"node count", func(st *NetworkState) { st.Segments[0].A = st.Segments[0].A[:10] },
			pulsedNetwork, "nodes"},
		{"missing windkessel pressures", func(st *NetworkState) { st.OutletP = nil },
			pulsedNetwork, "windkessel pressures"},
		{"segment count", func(st *NetworkState) { st.Segments = nil },
			pulsedNetwork, "segments"},
	}
	for _, tc := range cases {
		st := good
		st.Segments = append([]SegmentState(nil), good.Segments...)
		st.OutletP = append([]float64(nil), good.OutletP...)
		tc.mutate(&st)
		err := tc.target().ApplyState(st)
		if err == nil {
			t.Errorf("%s: ApplyState accepted a mismatched bundle", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.errPart) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.errPart)
		}
	}

	// And the unmutated bundle still applies cleanly.
	if err := pulsedNetwork().ApplyState(good); err != nil {
		t.Fatalf("clean bundle rejected: %v", err)
	}
}
