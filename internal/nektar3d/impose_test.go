package nektar3d

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"nektarg/internal/geometry"
)

// keyedBC is the oracle of ImposeFace: boundary values stored per node
// coordinate, quantized to 1e-9, over a fallback VelBC (nil: no-slip), and
// queried at every mask node. A face set later overwrites an earlier one's
// shared nodes.
type keyedBC struct {
	entries  map[[3]int64][3]float64
	fallback BCFunc
}

func keyOf(x, y, z float64) [3]int64 {
	const s = 1e9
	return [3]int64{int64(math.Round(x * s)), int64(math.Round(y * s)), int64(math.Round(z * s))}
}

func (b *keyedBC) setFace(pts []geometry.Vec3, u, v, w []float64) {
	for i, p := range pts {
		b.entries[keyOf(p.X, p.Y, p.Z)] = [3]float64{u[i], v[i], w[i]}
	}
}

// fill returns the Dirichlet fields the oracle puts on g at time t: its
// value on every mask node, 0 elsewhere.
func (b *keyedBC) fill(g *Grid, t float64) [3][]float64 {
	out := [3][]float64{g.NewField(), g.NewField(), g.NewField()}
	mask := g.BoundaryMask()
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				n := g.Idx(i, j, k)
				if !mask[n] {
					continue
				}
				var v [3]float64
				if e, ok := b.entries[keyOf(g.X[i], g.Y[j], g.Z[k])]; ok {
					v = e
				} else if b.fallback != nil {
					v[0], v[1], v[2] = b.fallback(t, g.X[i], g.Y[j], g.Z[k])
				}
				out[0][n], out[1][n], out[2][n] = v[0], v[1], v[2]
			}
		}
	}
	return out
}

// requireBC compares the solver's Dirichlet fields with the oracle's at
// time t, bit for bit, on every node.
func requireBC(t *testing.T, s *Solver, oracle *keyedBC, tm float64, what string) {
	t.Helper()
	s.fillBC(tm)
	want := oracle.fill(s.G, tm)
	for c, got := range [3][]float64{s.bcU, s.bcV, s.bcW} {
		for n := range got {
			if math.Float64bits(got[n]) != math.Float64bits(want[c][n]) {
				t.Fatalf("%s: node %d component %d = %v (%#x), oracle %v (%#x)",
					what, n, c, got[n], math.Float64bits(got[n]), want[c][n], math.Float64bits(want[c][n]))
			}
		}
	}
}

// TestImposeFaceMatchesKeyedOracle holds ImposeFace and fillBC to the
// coordinate-keyed oracle on random grids of every periodicity: three
// exchanges of one to four face impositions each, faces drawn at random (so
// faces sharing an edge, and the same face twice, in either order), values
// full of signed zeros, subnormals, infinities and NaNs, a VelBC or none,
// and refused calls in between that must change nothing.
func TestImposeFaceMatchesKeyedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	shared := 0
	for trial := 0; trial < 300; trial++ {
		ne := [3]int{1 + rng.Intn(3), 1 + rng.Intn(3), 1 + rng.Intn(3)}
		p := 2 + rng.Intn(5)
		per := [3]bool{rng.Intn(3) == 0, rng.Intn(3) == 0, rng.Intn(3) == 0}
		g := must(NewGrid(ne[0], ne[1], ne[2], p, 0.2+3*rng.Float64(), 0.2+3*rng.Float64(), 0.2+3*rng.Float64(), per[0], per[1], per[2]))(t)
		s := must(NewSolver(g, 1, 0.01))(t)
		oracle := &keyedBC{entries: map[[3]int64][3]float64{}}
		if rng.Intn(4) != 0 {
			a, b := rng.NormFloat64(), rng.NormFloat64()
			s.VelBC = func(tm, x, y, z float64) (float64, float64, float64) {
				return a*x + tm, b*y - z, x*y*z + a
			}
			oracle.fallback = s.VelBC
		}
		var boundary []string
		for axis, p := range per {
			if !p {
				boundary = append(boundary, string(rune('x'+axis))+"0", string(rune('x'+axis))+"1")
			}
		}
		axes := map[byte]bool{}
		for exchange := 0; exchange < 3; exchange++ {
			for n := 1 + rng.Intn(4); n > 0 && len(boundary) > 0; n-- {
				face := boundary[rng.Intn(len(boundary))]
				axes[face[0]] = true
				pts := g.FacePoints(face)
				var vals [3][]float64
				for c := range vals {
					vals[c] = make([]float64, len(pts))
					for i := range vals[c] {
						vals[c][i] = specialValue(rng)
					}
				}
				refuseBadCalls(t, s, per, len(pts))
				if err := s.ImposeFace(face, vals[0], vals[1], vals[2]); err != nil {
					t.Fatalf("trial %d: ImposeFace(%s): %v", trial, face, err)
				}
				oracle.setFace(pts, vals[0], vals[1], vals[2])
			}
			requireBC(t, s, oracle, 0.1*float64(exchange), fmt.Sprintf("trial %d exchange %d", trial, exchange))
		}
		if len(axes) > 1 {
			shared++
		}
	}
	if shared < 50 {
		t.Fatalf("only %d trials imposed faces of two axes, which share an edge", shared)
	}
}

// refuseBadCalls makes ImposeFace calls it must refuse: an unknown face, a
// face across a periodic axis, and values of the wrong length for a face of
// m nodes.
func refuseBadCalls(t *testing.T, s *Solver, per [3]bool, m int) {
	t.Helper()
	type call struct {
		face    string
		u, v, w []float64
		want    string
	}
	ok := make([]float64, m)
	bad := []call{{"x2", ok, ok, ok, "unknown face"}, {"", ok, ok, ok, "unknown face"}, {"w0", ok, ok, ok, "unknown face"}}
	for axis, p := range per {
		if p {
			bad = append(bad, call{string(rune('x'+axis)) + "1", ok, ok, ok, "periodic"})
		}
	}
	for _, face := range []string{"x0", "x1", "y0", "y1", "z0", "z1"} {
		if per[face[0]-'x'] || len(must(s.G.FaceNodes(face))(t)) != m {
			continue
		}
		for i, n := range []int{m - 1, m + 1, 0} {
			vals := [3][]float64{ok, ok, ok}
			vals[i] = make([]float64, n)
			bad = append(bad, call{face, vals[0], vals[1], vals[2], "values"})
		}
	}
	for _, b := range bad {
		err := s.ImposeFace(b.face, b.u, b.v, b.w)
		if err == nil || !strings.Contains(err.Error(), b.want) {
			t.Fatalf("ImposeFace(%q, %d, %d, %d values) = %v, want an error naming %q", b.face, len(b.u), len(b.v), len(b.w), err, b.want)
		}
	}
}

// TestImposeFaceSharedEdgeLaterWins imposes x0, then z0, then x0 again,
// each with its own constant: the edge x0 and z0 share carries the later
// call's value, the rest of each face its own, and every other mask node
// VelBC's.
func TestImposeFaceSharedEdgeLaterWins(t *testing.T) {
	g := must(NewGrid(2, 1, 2, 3, 1, 1, 1, false, true, false))(t)
	s := must(NewSolver(g, 1, 0.01))(t)
	s.VelBC = func(_, _, _, _ float64) (float64, float64, float64) { return 7, 7, 7 }
	mask := g.BoundaryMask()
	for _, c := range []struct {
		face       string
		val, edge  float64
		x0, z0Rest float64
	}{{"x0", 1, 1, 1, 7}, {"z0", 2, 2, 1, 2}, {"x0", 3, 3, 3, 2}} {
		vals := make([]float64, len(g.FacePoints(c.face)))
		for i := range vals {
			vals[i] = c.val
		}
		if err := s.ImposeFace(c.face, vals, vals, vals); err != nil {
			t.Fatal(err)
		}
		s.fillBC(0)
		for k := 0; k < g.Nz; k++ {
			for j := 0; j < g.Ny; j++ {
				for i := 0; i < g.Nx; i++ {
					n := g.Idx(i, j, k)
					want := 0.0
					switch {
					case i == 0 && k == 0:
						want = c.edge
					case i == 0:
						want = c.x0
					case k == 0:
						want = c.z0Rest
					case mask[n]:
						want = 7
					}
					if s.bcU[n] != want || s.bcV[n] != want || s.bcW[n] != want {
						t.Fatalf("after %s = %v: node (%d,%d,%d) = %v %v %v, want %v",
							c.face, c.val, i, j, k, s.bcU[n], s.bcV[n], s.bcW[n], want)
					}
				}
			}
		}
	}
}
