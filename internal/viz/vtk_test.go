package viz

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"nektarg/internal/core"
	"nektarg/internal/dpd"
	"nektarg/internal/geometry"
	"nektarg/internal/nektar3d"
)

// countLinesAfter returns how many non-empty lines follow the first line
// with the given prefix, up to the next section keyword.
func sectionLines(t *testing.T, out, prefix string) []string {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var lines []string
	in := false
	for sc.Scan() {
		l := sc.Text()
		if in {
			if strings.HasPrefix(l, "POINT_DATA") || strings.HasPrefix(l, "VECTORS") ||
				strings.HasPrefix(l, "SCALARS") || strings.HasPrefix(l, "LOOKUP_TABLE") ||
				strings.HasPrefix(l, "VERTICES") || strings.HasPrefix(l, "POLYGONS") {
				break
			}
			if strings.TrimSpace(l) != "" {
				lines = append(lines, l)
			}
		}
		if strings.HasPrefix(l, prefix) {
			in = true
		}
	}
	if !in {
		t.Fatalf("section %q not found", prefix)
	}
	return lines
}

func TestWriteStructuredGridStructure(t *testing.T) {
	g := must(nektar3d.NewGrid(1, 1, 1, 2, 1, 2, 3, false, false, false))(t)
	s := must(nektar3d.NewSolver(g, 0.1, 0.01))(t)
	s.SetInitial(func(x, y, z float64) (float64, float64, float64) { return x, y, z })
	var buf bytes.Buffer
	if err := WriteStructuredGrid(&buf, "test", g, s.U, s.V, s.W, s.Pr, geometry.Vec3{X: 10}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "DATASET STRUCTURED_GRID") {
		t.Fatal("missing dataset header")
	}
	if !strings.Contains(out, fmt.Sprintf("DIMENSIONS %d %d %d", g.Nx, g.Ny, g.Nz)) {
		t.Fatal("missing dimensions")
	}
	pts := sectionLines(t, out, "POINTS")
	if len(pts) != g.NumNodes() {
		t.Fatalf("points = %d want %d", len(pts), g.NumNodes())
	}
	// Origin offset applied: first point is (10, 0, 0).
	f := strings.Fields(pts[0])
	if x, _ := strconv.ParseFloat(f[0], 64); x != 10 {
		t.Fatalf("first point x = %v", x)
	}
	vels := sectionLines(t, out, "VECTORS velocity")
	if len(vels) != g.NumNodes() {
		t.Fatalf("velocity rows = %d", len(vels))
	}
	if !strings.Contains(out, "SCALARS pressure") {
		t.Fatal("missing pressure")
	}
}

func TestWriteStructuredGridRejectsBadSizes(t *testing.T) {
	g := must(nektar3d.NewGrid(1, 1, 1, 2, 1, 1, 1, false, false, false))(t)
	var buf bytes.Buffer
	err := WriteStructuredGrid(&buf, "bad", g, make([]float64, 3), make([]float64, g.NumNodes()), make([]float64, g.NumNodes()), nil, geometry.Vec3{})
	if err == nil {
		t.Fatal("expected size error")
	}
}

func TestWriteParticlesStructure(t *testing.T) {
	p := dpd.DefaultParams(2)
	sys := must(dpd.NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 2, Y: 2, Z: 2}, [3]bool{true, true, true}))(t)
	sys.AddParticle(geometry.Vec3{X: 1, Y: 1, Z: 1}, geometry.Vec3{X: 5}, 0, false)
	sys.AddParticle(geometry.Vec3{X: 0.5, Y: 0.5, Z: 0.5}, geometry.Vec3{}, 1, false)
	shift := func(q geometry.Vec3) geometry.Vec3 { return q.Add(geometry.Vec3{X: 100}) }
	var buf bytes.Buffer
	err := WriteParticles(&buf, "parts", sys, shift, ParticleScalar{Name: "state", Values: []float64{0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	pts := sectionLines(t, out, "POINTS")
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if !strings.HasPrefix(pts[0], "101 ") {
		t.Fatalf("transform not applied: %q", pts[0])
	}
	if !strings.Contains(out, "SCALARS state double") {
		t.Fatal("missing custom scalar")
	}
	if !strings.Contains(out, "SCALARS species int") {
		t.Fatal("missing species channel")
	}
}

func TestWriteParticlesScalarSizeMismatch(t *testing.T) {
	p := dpd.DefaultParams(1)
	sys := must(dpd.NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 1, Y: 1, Z: 1}, [3]bool{true, true, true}))(t)
	sys.AddParticle(geometry.Vec3{X: 0.5, Y: 0.5, Z: 0.5}, geometry.Vec3{}, 0, false)
	var buf bytes.Buffer
	if err := WriteParticles(&buf, "x", sys, nil, ParticleScalar{Name: "bad", Values: nil}); err == nil {
		t.Fatal("expected mismatch error")
	}
}

func TestWriteSurfaceStructure(t *testing.T) {
	s := geometry.PlanarRect("g", geometry.Vec3{}, geometry.Vec3{X: 1}, geometry.Vec3{Y: 1}, 2, 2)
	var buf bytes.Buffer
	if err := WriteSurface(&buf, "iface", s, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	nT := len(s.Triangles)
	if !strings.Contains(out, fmt.Sprintf("POINTS %d double", 3*nT)) {
		t.Fatal("bad point count")
	}
	if !strings.Contains(out, fmt.Sprintf("POLYGONS %d %d", nT, 4*nT)) {
		t.Fatal("bad polygon header")
	}
}

// memFile is an in-memory WriteCloser for Scene tests.
type memFile struct {
	bytes.Buffer
	closed bool
}

func (m *memFile) Close() error { m.closed = true; return nil }

func TestSceneWritesAllPieces(t *testing.T) {
	g := must(nektar3d.NewGrid(1, 1, 1, 2, 1, 1, 1, true, true, true))(t)
	s := must(nektar3d.NewSolver(g, 0.1, 0.01))(t)
	patch := core.NewContinuumPatch("chan", s, geometry.Vec3{})

	p := dpd.DefaultParams(1)
	sys := must(dpd.NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 4, Y: 4, Z: 4}, [3]bool{true, true, true}))(t)
	sys.FillRandom(10, 0)
	region := &core.AtomisticRegion{
		Name: "ins", Sys: sys,
		Origin:   geometry.Vec3{X: 0.4},
		NSUnits:  core.Units{L: 1e-3, Nu: 0.1},
		DPDUnits: core.Units{L: 5e-5, Nu: 0.1},
		Interfaces: []*geometry.Surface{
			geometry.PlanarRect("gin", geometry.Vec3{}, geometry.Vec3{Y: 4}, geometry.Vec3{Z: 4}, 1, 1),
		},
	}
	meta := core.NewMetasolver()
	meta.Patches = []*core.ContinuumPatch{patch}
	meta.Atomistic = []*core.AtomisticRegion{region}

	files := map[string]*memFile{}
	open := func(name string) (io.WriteCloser, error) {
		f := &memFile{}
		files[name] = f
		return f, nil
	}
	sc := &Scene{Meta: meta}
	if err := sc.Write(open); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"patch-chan.vtk", "region-ins.vtk", "iface-ins-gin.vtk"} {
		f, ok := files[want]
		if !ok {
			t.Fatalf("missing file %q (have %v)", want, keys(files))
		}
		if !f.closed {
			t.Fatalf("%q not closed", want)
		}
		if f.Len() == 0 {
			t.Fatalf("%q empty", want)
		}
	}
	// The region's particle coordinates must be in the global frame: all x
	// within [0.4, 0.4 + 4*0.05].
	pts := sectionLines(t, files["region-ins.vtk"].String(), "POINTS")
	for _, l := range pts {
		x, _ := strconv.ParseFloat(strings.Fields(l)[0], 64)
		if x < 0.4-1e-9 || x > 0.4+4*0.05+1e-9 {
			t.Fatalf("particle x = %v outside mapped box", x)
		}
	}
}

func keys(m map[string]*memFile) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
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
