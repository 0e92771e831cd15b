package nektar1d_test

import (
	"errors"
	"testing"

	"nektarg/internal/core"
	"nektarg/internal/geometry"
	"nektarg/internal/nektar1d"
	"nektarg/internal/nektar3d"
)

// TestJunctionStallReachesTheCoupling: the sentinel survives Step's and
// OutletTo1D.Exchange's wrapping, so the recovery loop above can tell a
// stalled junction from any other 1D failure with errors.Is. (The test lives
// here, outside package core, because the iteration cap is this package's
// test seam.)
func TestJunctionStallReachesTheCoupling(t *testing.T) {
	g := must(nektar3d.NewGrid(2, 1, 2, 4, 1, 1, 1, false, true, false))(t)
	s := must(nektar3d.NewSolver(g, 0.5, 0.01))(t)
	profile := func(_, _, z float64) (float64, float64, float64) { return z * (1 - z), 0, 0 }
	s.Force = func(_, _, _, _ float64) (float64, float64, float64) { return 1, 0, 0 }
	s.SetInitial(profile)
	s.VelBC = func(_, x, y, z float64) (float64, float64, float64) { return profile(x, y, z) }
	patch := core.NewContinuumPatch("p", s, geometry.Vec3{})

	spec := nektar1d.DefaultTreeSpec(1)
	spec.NodesPerSegment = 21
	net, inlet, err := nektar1d.BuildFractalTree(spec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := core.NewOutletTo1D(patch, "x1", net, inlet, 6)
	if err != nil {
		t.Fatal(err)
	}

	nektar1d.CapJunctionNewton(t, 1)
	for e := 0; e < 40; e++ { // 0.4 s: the root's transit time is 0.08 s
		if err = s.Run(1); err != nil {
			t.Fatal(err)
		}
		if _, _, err = out.Exchange(core.OutletDt1D); err != nil {
			break
		}
	}
	if !errors.Is(err, nektar1d.ErrJunctionStalled) {
		t.Fatalf("Exchange with the junction capped at one iteration: err = %v, want ErrJunctionStalled in the chain", err)
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
