package checkpoint

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"nektarg/internal/dpd"
	"nektarg/internal/geometry"
	"nektarg/internal/nektar1d"
	"nektarg/internal/nektar3d"
)

// sampleBundle builds a populated three-solver bundle for robustness tests.
func sampleBundle(t testing.TB, exchanges int) *Coupled {
	t.Helper()
	c := NewCoupled()
	c.Exchanges = exchanges

	g := must(nektar3d.NewGrid(2, 1, 1, 3, 2, 1, 1, true, true, true))(t)
	s := must(nektar3d.NewSolver(g, 0.1, 0.01))(t)
	s.SetInitial(func(x, y, z float64) (float64, float64, float64) {
		return math.Sin(x), math.Cos(x), 0
	})
	c.Patches["main"] = s.CaptureState()

	p := dpd.DefaultParams(1)
	sys := must(dpd.NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 4, Y: 4, Z: 4}, [3]bool{true, true, true}))(t)
	sys.FillRandom(50, 0)
	sys.Run(3)
	c.Regions["box"] = sys.CaptureState()

	net := &nektar1d.Network{}
	seg := net.AddSegment(nektar1d.NewSegment("root", 0.1, 11, 1e-5, 1e5, 1050, 1))
	net.Outlets = append(net.Outlets, &nektar1d.Outlet{Seg: seg, WK: nektar1d.NewWindkessel(1e8, 1e-9)})
	net.Outlets[0].WK.P = 1234.5
	c.Networks["tree"] = net.CaptureState()
	return c
}

// TestCorruptionTable is the robustness table of the restart path: every
// on-disk failure mode must surface as a wrapped error — never a panic, and
// never a silently half-loaded bundle.
func TestCorruptionTable(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.ckpt")
	if err := WriteFile(good, sampleBundle(t, 5)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	// forgeVersion writes a well-formed file (envelope, CRC) whose bundle
	// claims format version v: only the version check can reject it.
	forgeVersion := func(v int) []byte {
		var payload bytes.Buffer
		c := sampleBundle(t, 5)
		c.Version = v
		if err := gob.NewEncoder(&payload).Encode(c); err != nil {
			t.Fatal(err)
		}
		hdr := envelopeHeader(payload.Bytes())
		return append(hdr[:], payload.Bytes()...)
	}
	if _, err := Load(bytes.NewReader(forgeVersion(FormatVersion)[envelopeHeaderLen:])); err != nil {
		t.Fatalf("forged file at the current version must load: %v", err)
	}
	flip := func(b []byte, at int) []byte {
		out := append([]byte(nil), b...)
		out[at%len(out)] ^= 0xff
		return out
	}

	cases := []struct {
		name string
		data []byte
	}{
		{"truncated-header", raw[:3]},
		{"truncated-half", raw[:len(raw)/2]},
		{"truncated-tail", raw[:len(raw)-1]},
		{"empty-file", nil},
		{"flipped-early", flip(raw, 10)},
		{"flipped-late", flip(raw, len(raw)-20)},
		{"version-zero", forgeVersion(0)},
		{"version-1", forgeVersion(1)},
		{"version-2", forgeVersion(2)},
		{"version-3", forgeVersion(3)},
		{"version-4", forgeVersion(4)},
		{"version-future", forgeVersion(FormatVersion + 1)},
		{"no-magic", raw[envelopeHeaderLen:]}, // a valid current-version gob stream, bare
		{"not-a-gob", []byte("definitely not a gob stream")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("Load panicked: %v", p)
				}
			}()
			path := filepath.Join(dir, tc.name+".ckpt")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadFile(path); err == nil {
				t.Fatal("expected error, got nil")
			}
		})
	}

	t.Run("missing-file", func(t *testing.T) {
		if _, err := ReadFile(filepath.Join(dir, "nope.ckpt")); err == nil {
			t.Fatal("expected error, got nil")
		}
	})
}

// TestStoreWriteLatestPrune exercises the managed directory: writes are
// atomic and numbered, retention prunes the oldest, and Latest returns the
// newest loadable bundle.
func TestStoreWriteLatestPrune(t *testing.T) {
	st := &Store{Dir: filepath.Join(t.TempDir(), "ckpt"), Keep: 2}
	for e := 1; e <= 4; e++ {
		c := sampleBundle(t, e)
		if _, err := st.Write(c); err != nil {
			t.Fatal(err)
		}
	}
	paths := st.List()
	if len(paths) != 2 {
		t.Fatalf("retention kept %d files: %v", len(paths), paths)
	}
	path, c, err := st.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if c.Exchanges != 4 {
		t.Fatalf("Latest returned exchange %d from %s", c.Exchanges, path)
	}
}

// TestStoreLatestSkipsCorrupt: the recover loop must fall back past a torn
// newest file to the last good checkpoint.
func TestStoreLatestSkipsCorrupt(t *testing.T) {
	st := &Store{Dir: t.TempDir(), Keep: 4}
	for e := 1; e <= 3; e++ {
		if _, err := st.Write(sampleBundle(t, e)); err != nil {
			t.Fatal(err)
		}
	}
	paths := st.List()
	// Corrupt the newest (truncate) and the middle (flip bytes).
	if err := os.WriteFile(paths[2], []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(paths[1], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, c, err := st.Latest()
	if err != nil {
		t.Fatalf("Latest failed instead of falling back: %v", err)
	}
	if c.Exchanges != 1 {
		t.Fatalf("fell back to exchange %d, want 1", c.Exchanges)
	}
}

// TestStoreLatestEmpty: an empty or missing directory is a clean "nothing to
// resume" error.
func TestStoreLatestEmpty(t *testing.T) {
	st := &Store{Dir: filepath.Join(t.TempDir(), "never-created")}
	if _, _, err := st.Latest(); err == nil {
		t.Fatal("expected error for empty store")
	}
	st2 := &Store{Dir: t.TempDir()}
	for _, junk := range []string{"flight-1.json", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(st2.Dir, junk), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := st2.Latest(); err == nil {
		t.Fatal("expected error: unmanaged files must not be treated as checkpoints")
	}
}

// TestThreeSolverRoundTripProperty is the full-bundle property test: for a
// spread of sizes, a 3D + DPD + 1D bundle survives WriteFile/ReadFile with
// every field bit-identical. Runs under -race in the verify gate.
func TestThreeSolverRoundTripProperty(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		n := n
		t.Run(fmt.Sprintf("size-%d", n), func(t *testing.T) {
			c := NewCoupled()
			c.Exchanges = 10 * n

			for i := 0; i < n; i++ {
				g := must(nektar3d.NewGrid(1+i, 1, 1, 2+i, float64(1+i), 1, 1, true, true, true))(t)
				s := must(nektar3d.NewSolver(g, 0.05*float64(1+i), 0.01))(t)
				s.SetInitial(func(x, y, z float64) (float64, float64, float64) {
					return math.Sin(x + float64(i)), math.Cos(y), math.Sin(z)
				})
				if err := s.Run(2); err != nil {
					t.Fatal(err)
				}
				c.Patches[fmt.Sprintf("p%d", i)] = s.CaptureState()
			}

			p := dpd.DefaultParams(1)
			p.Seed = uint64(100 + n)
			sys := must(dpd.NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 4, Y: 4, Z: 4}, [3]bool{false, true, true}))(t)
			sys.FillRandom(40*n, 0)
			in := &dpd.FluxBC{Axis: 0, Rho: 3, Vel: func(geometry.Vec3) geometry.Vec3 { return geometry.Vec3{X: 0.2} }}
			out := &dpd.FluxBC{Axis: 0, AtMax: true, Rho: 3}
			sys.Inflows = []*dpd.FluxBC{in, out}
			sys.Run(5 * n)
			c.Regions["r"] = sys.CaptureState()

			net := &nektar1d.Network{}
			for i := 0; i < n; i++ {
				seg := net.AddSegment(nektar1d.NewSegment(fmt.Sprintf("s%d", i), 0.1, 7+2*i, 1e-5, 1e5, 1050, 1))
				wk := nektar1d.NewWindkessel(1e8, 1e-9)
				wk.P = 100 * float64(i+1)
				net.Outlets = append(net.Outlets, &nektar1d.Outlet{Seg: seg, WK: wk})
			}
			net.Time, net.Steps = 0.125*float64(n), 3*n
			c.Networks["tree"] = net.CaptureState()

			path := filepath.Join(t.TempDir(), "rt.ckpt")
			if err := WriteFile(path, c); err != nil {
				t.Fatal(err)
			}
			got, err := ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			assertBundlesEqual(t, c, got)
		})
	}
}

// assertBundlesEqual compares two bundles field-by-field with exact float
// equality (the format must not lose bits).
func assertBundlesEqual(t *testing.T, want, got *Coupled) {
	t.Helper()
	if got.Version != want.Version || got.Exchanges != want.Exchanges {
		t.Fatalf("header: %d/%d vs %d/%d", got.Version, got.Exchanges, want.Version, want.Exchanges)
	}
	if len(got.Patches) != len(want.Patches) || len(got.Regions) != len(want.Regions) || len(got.Networks) != len(want.Networks) {
		t.Fatalf("map sizes differ")
	}
	eqF := func(name string, a, b []float64) {
		if len(a) != len(b) {
			t.Fatalf("%s: lengths %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s[%d]: %v vs %v", name, i, a[i], b[i])
			}
		}
	}
	for name, w := range want.Patches {
		g, ok := got.Patches[name]
		if !ok {
			t.Fatalf("patch %q lost", name)
		}
		eqF(name+".U", w.U, g.U)
		eqF(name+".V", w.V, g.V)
		eqF(name+".W", w.W, g.W)
		eqF(name+".Pr", w.Pr, g.Pr)
		eqF(name+".UPrev", w.UPrev, g.UPrev)
		if g.Steps != w.Steps || g.Time != w.Time || g.Order != w.Order {
			t.Fatalf("patch %q clock/order", name)
		}
	}
	for name, w := range want.Regions {
		g, ok := got.Regions[name]
		if !ok {
			t.Fatalf("region %q lost", name)
		}
		if len(g.Particles) != len(w.Particles) {
			t.Fatalf("region %q particles", name)
		}
		for i := range w.Particles {
			if g.Particles[i] != w.Particles[i] {
				t.Fatalf("region %q particle %d", name, i)
			}
		}
		if !bytes.Equal(g.RNG, w.RNG) {
			t.Fatalf("region %q rng stream", name)
		}
		eqF(name+".FaceAcc", w.FaceAcc, g.FaceAcc)
		if g.Step != w.Step || g.Time != w.Time || g.NextID != w.NextID ||
			g.Inserted != w.Inserted || g.Deleted != w.Deleted {
			t.Fatalf("region %q bookkeeping", name)
		}
	}
	for name, w := range want.Networks {
		g, ok := got.Networks[name]
		if !ok {
			t.Fatalf("network %q lost", name)
		}
		if len(g.Segments) != len(w.Segments) {
			t.Fatalf("network %q segments", name)
		}
		for i := range w.Segments {
			if g.Segments[i].Name != w.Segments[i].Name {
				t.Fatalf("network %q segment %d name", name, i)
			}
			eqF(name+".A", w.Segments[i].A, g.Segments[i].A)
			eqF(name+".U", w.Segments[i].U, g.Segments[i].U)
		}
		eqF(name+".OutletP", w.OutletP, g.OutletP)
		if g.Time != w.Time || g.Steps != w.Steps {
			t.Fatalf("network %q clock", name)
		}
	}
}
