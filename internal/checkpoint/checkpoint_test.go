package checkpoint

import (
	"bytes"
	"encoding/gob"
	"io"
	"math"
	"testing"

	"nektarg/internal/dpd"
	"nektarg/internal/geometry"
	"nektarg/internal/nektar3d"
)

func TestDPDResumeIsBitIdentical(t *testing.T) {
	// A closed DPD system checkpointed mid-run must continue exactly as an
	// uninterrupted run (counter-based random forces).
	mk := func() *dpd.System {
		p := dpd.DefaultParams(1)
		sys := dpd.NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 5, Y: 5, Z: 5}, [3]bool{true, true, true})
		sys.FillRandom(200, 0)
		return sys
	}
	ref := mk()
	ref.Run(60)

	sys := mk()
	sys.Run(25)
	st := sys.CaptureState()

	var buf bytes.Buffer
	c := NewCoupled()
	c.Regions["box"] = st
	if err := Save(&buf, c); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := dpd.RestoreState(loaded.Regions["box"])
	if err != nil {
		t.Fatal(err)
	}
	resumed.Run(35)

	if len(resumed.Particles) != len(ref.Particles) {
		t.Fatalf("particle counts: %d vs %d", len(resumed.Particles), len(ref.Particles))
	}
	for i := range ref.Particles {
		if d := ref.Particles[i].Pos.Sub(resumed.Particles[i].Pos).Norm(); d != 0 {
			t.Fatalf("particle %d diverged by %v after resume", i, d)
		}
		if d := ref.Particles[i].Vel.Sub(resumed.Particles[i].Vel).Norm(); d != 0 {
			t.Fatalf("particle %d velocity diverged by %v", i, d)
		}
	}
	if resumed.Step != ref.Step || resumed.Time != ref.Time {
		t.Fatalf("clock mismatch: %d/%v vs %d/%v", resumed.Step, resumed.Time, ref.Step, ref.Time)
	}
}

func TestSolverResumeContinues(t *testing.T) {
	// A continuum solver checkpointed mid-run continues to the same state
	// as an uninterrupted run (deterministic solver; order-2 history
	// must survive the round trip).
	mk := func() *nektar3d.Solver {
		g := nektar3d.NewGrid(2, 2, 1, 4, 6.28, 6.28, 1, true, true, true)
		s := nektar3d.NewSolver(g, 0.05, 0.01)
		s.Order = 2
		s.SetInitial(func(x, y, z float64) (float64, float64, float64) {
			return math.Sin(x) * math.Cos(y), -math.Cos(x) * math.Sin(y), 0
		})
		return s
	}
	ref := mk()
	if err := ref.Run(20); err != nil {
		t.Fatal(err)
	}

	s := mk()
	if err := s.Run(8); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	c := NewCoupled()
	c.Exchanges = 3
	c.Patches["main"] = s.CaptureState()
	if err := Save(&buf, c); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Exchanges != 3 {
		t.Fatalf("exchanges = %d", loaded.Exchanges)
	}
	resumed, err := nektar3d.RestoreState(loaded.Patches["main"])
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Run(12); err != nil {
		t.Fatal(err)
	}
	var maxD float64
	for i := range ref.U {
		if d := math.Abs(ref.U[i] - resumed.U[i]); d > maxD {
			maxD = d
		}
	}
	// CG tolerances make this near-identical rather than bit-identical.
	if maxD > 1e-10 {
		t.Fatalf("resumed field diverged by %g", maxD)
	}
	if resumed.Steps != ref.Steps || math.Abs(resumed.Time-ref.Time) > 1e-14 {
		t.Fatalf("clock mismatch: %d/%v vs %d/%v", resumed.Steps, resumed.Time, ref.Steps, ref.Time)
	}
}

func TestRestoreRejectsCorruptState(t *testing.T) {
	g := nektar3d.NewGrid(1, 1, 1, 2, 1, 1, 1, true, true, true)
	s := nektar3d.NewSolver(g, 0.1, 0.01)
	st := s.CaptureState()
	st.U = st.U[:2] // truncate
	if _, err := nektar3d.RestoreState(st); err == nil {
		t.Fatal("expected field-length error")
	}

	p := dpd.DefaultParams(1)
	sys := dpd.NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 1, Y: 1, Z: 1}, [3]bool{true, true, true})
	dst := sys.CaptureState()
	dst.Params.Dt = 0
	if _, err := dpd.RestoreState(dst); err == nil {
		t.Fatal("expected params error")
	}
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	// Save refuses to write unknown versions, so forge the stream directly.
	var buf bytes.Buffer
	c := NewCoupled()
	c.Version = 99
	if err := gob.NewEncoder(&buf).Encode(c); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Fatal("expected version error")
	}
}

func TestSaveRejectsUnsetOrUnknownVersion(t *testing.T) {
	for _, v := range []int{0, FormatVersion + 1, 99, -1, 1, 4} {
		var buf bytes.Buffer
		c := NewCoupled()
		c.Version = v
		if err := Save(&buf, c); err == nil {
			t.Fatalf("Save accepted version %d", v)
		}
		if c.Version != v {
			t.Fatalf("Save mutated the bundle: version %d -> %d", v, c.Version)
		}
		if buf.Len() != 0 {
			t.Fatalf("Save wrote %d bytes before failing version validation", buf.Len())
		}
	}
	if err := Save(io.Discard, nil); err == nil {
		t.Fatal("Save accepted a nil bundle")
	}
}

func TestSaveIsSideEffectFree(t *testing.T) {
	c := NewCoupled()
	c.Exchanges = 7
	var buf bytes.Buffer
	if err := Save(&buf, c); err != nil {
		t.Fatal(err)
	}
	if c.Version != FormatVersion || c.Exchanges != 7 {
		t.Fatalf("Save mutated the bundle: %+v", c)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not a gob stream")); err == nil {
		t.Fatal("expected decode error")
	}
}
