// Package mesh provides the unstructured tetrahedral meshes and multi-patch
// arterial domain descriptions used by the partitioning study (Table 2), the
// multi-patch scaling replays (Tables 3-4) and the coupled aneurysm setup.
// Generators produce box, bent-pipe ("carotid") and aneurysm-carrying domains
// whose element adjacency structure — not patient-specific geometry — is what
// the paper's experiments exercise.
package mesh

import (
	"fmt"
	"math"
	"sort"

	"nektarg/internal/geometry"
)

// TetMesh is an unstructured tetrahedral mesh.
type TetMesh struct {
	Verts []geometry.Vec3
	Tets  [][4]int
}

// NumElements returns the element count.
func (m *TetMesh) NumElements() int { return len(m.Tets) }

// NumVertices returns the vertex count.
func (m *TetMesh) NumVertices() int { return len(m.Verts) }

// TetVolume returns the signed volume of element e.
func (m *TetMesh) TetVolume(e int) float64 {
	t := m.Tets[e]
	a := m.Verts[t[1]].Sub(m.Verts[t[0]])
	b := m.Verts[t[2]].Sub(m.Verts[t[0]])
	c := m.Verts[t[3]].Sub(m.Verts[t[0]])
	return a.Cross(b).Dot(c) / 6
}

// Volume returns the total mesh volume.
func (m *TetMesh) Volume() float64 {
	var v float64
	for e := range m.Tets {
		v += math.Abs(m.TetVolume(e))
	}
	return v
}

// Centroid returns the centroid of element e.
func (m *TetMesh) Centroid(e int) geometry.Vec3 {
	t := m.Tets[e]
	return m.Verts[t[0]].Add(m.Verts[t[1]]).Add(m.Verts[t[2]]).Add(m.Verts[t[3]]).Scale(0.25)
}

// Bounds returns the mesh bounding box.
func (m *TetMesh) Bounds() geometry.AABB {
	return geometry.NewAABB(m.Verts...)
}

// Validate checks structural sanity: index ranges and non-degenerate
// elements.
func (m *TetMesh) Validate() error {
	for e, t := range m.Tets {
		for _, v := range t {
			if v < 0 || v >= len(m.Verts) {
				return fmt.Errorf("mesh: element %d references vertex %d of %d", e, v, len(m.Verts))
			}
		}
		if math.Abs(m.TetVolume(e)) < 1e-300 {
			return fmt.Errorf("mesh: element %d is degenerate", e)
		}
	}
	return nil
}

// BoxTets meshes the box [0,lx]x[0,ly]x[0,lz] with nx x ny x nz cells, each
// split into 5 tetrahedra (alternating parity so faces conform).
func BoxTets(nx, ny, nz int, lx, ly, lz float64) *TetMesh {
	if nx < 1 || ny < 1 || nz < 1 {
		panic(fmt.Sprintf("mesh: BoxTets needs positive cells, got %d,%d,%d", nx, ny, nz))
	}
	m := &TetMesh{}
	vid := func(i, j, k int) int { return i + (nx+1)*(j+(ny+1)*k) }
	for k := 0; k <= nz; k++ {
		for j := 0; j <= ny; j++ {
			for i := 0; i <= nx; i++ {
				m.Verts = append(m.Verts, geometry.Vec3{
					X: lx * float64(i) / float64(nx),
					Y: ly * float64(j) / float64(ny),
					Z: lz * float64(k) / float64(nz),
				})
			}
		}
	}
	// Five-tet decomposition of a cube with corner parity flip so shared
	// faces have matching diagonals.
	even := [5][4]int{{0, 1, 3, 5}, {0, 3, 2, 6}, {0, 5, 4, 6}, {3, 5, 6, 7}, {0, 3, 5, 6}}
	odd := [5][4]int{{1, 2, 0, 4}, {1, 4, 5, 7}, {1, 2, 7, 3}, {2, 4, 6, 7}, {1, 2, 4, 7}}
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				corners := [8]int{
					vid(i, j, k), vid(i+1, j, k), vid(i, j+1, k), vid(i+1, j+1, k),
					vid(i, j, k+1), vid(i+1, j, k+1), vid(i, j+1, k+1), vid(i+1, j+1, k+1),
				}
				pat := even
				if (i+j+k)%2 == 1 {
					pat = odd
				}
				for _, p := range pat {
					m.Tets = append(m.Tets, [4]int{corners[p[0]], corners[p[1]], corners[p[2]], corners[p[3]]})
				}
			}
		}
	}
	return m
}

// CarotidTets builds the Table 2 workload: a bent-pipe ("carotid-like")
// domain obtained by meshing a slab and bending it along a circular arc with
// a mild stenosis (radius constriction) at mid-length. The adjacency
// structure matches an artery-like unstructured mesh.
func CarotidTets(nAxial, nCirc, nRadial int) *TetMesh {
	m := BoxTets(nAxial, nCirc, nRadial, 1, 1, 1)
	const (
		bend   = math.Pi / 3 // total bend angle
		arcR   = 4.0         // bend radius
		pipeR  = 0.5         // nominal pipe radius
		narrow = 0.35        // stenosis depth
	)
	for i, v := range m.Verts {
		// v.X in [0,1] is the axial coordinate; (v.Y, v.Z) the section.
		s := v.X
		r := pipeR * (1 - narrow*math.Exp(-20*(s-0.5)*(s-0.5)))
		y := (v.Y - 0.5) * 2 * r
		z := (v.Z - 0.5) * 2 * r
		th := bend * s
		m.Verts[i] = geometry.Vec3{
			X: (arcR + y) * math.Sin(th),
			Y: (arcR + y) * math.Cos(th),
			Z: z,
		}
	}
	return m
}

// AneurysmTets builds a vessel segment carrying a saccular aneurysm: a
// straight pipe (meshed as a deformed slab like CarotidTets) whose wall
// bulges into a near-spherical dome around mid-length. The element count and
// adjacency mimic the sac-bearing patch of the paper's Figure 1 domain.
func AneurysmTets(nAxial, nCirc, nRadial int, domeRadius float64) *TetMesh {
	if domeRadius <= 0 {
		panic(fmt.Sprintf("mesh: dome radius %v", domeRadius))
	}
	m := BoxTets(nAxial, nCirc, nRadial, 1, 1, 1)
	const pipeR = 0.5
	for i, v := range m.Verts {
		s := v.X // axial coordinate in [0,1]
		// Radial bulge: the +y side of the wall inflates into a dome
		// centered at s = 0.5.
		bulge := domeRadius * math.Exp(-25*(s-0.5)*(s-0.5))
		y := (v.Y - 0.5) * 2
		z := (v.Z - 0.5) * 2
		r := pipeR * (1 + bulge*math.Max(0, y))
		m.Verts[i] = geometry.Vec3{
			X: 4 * s,
			Y: y * r,
			Z: z * pipeR,
		}
	}
	return m
}

// face is a sorted vertex triple.
type face [3]int

func sortedFace(a, b, c int) face {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return face{a, b, c}
}

var tetFaces = [4][3]int{{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}}

// AdjacencyLevel selects which element-sharing relations count as adjacency
// when building the partitioning graph.
type AdjacencyLevel int

// Adjacency levels. FaceOnly reproduces the paper's strategy (a); FullAdjacency
// (vertex, edge and face sharing, DOF-weighted) is strategy (b).
const (
	FaceOnly AdjacencyLevel = iota
	FullAdjacency
)

// Edge is one weighted adjacency link.
type Edge struct {
	To     int
	Weight float64
}

// Graph is the element-adjacency graph handed to the partitioner.
type Graph struct {
	N   int
	Adj [][]Edge
}

// SharedDOFWeight returns the number of degrees of freedom shared by two
// spectral elements of polynomial order p that have nShared common vertices:
// a shared face carries O(p^2) modes, a shared edge O(p), a shared vertex 1.
// "The weights associated with the links are scaled with respect to the
// number of shared degrees of freedom per link."
func SharedDOFWeight(p, nShared int) float64 {
	switch nShared {
	case 3:
		return float64((p + 1) * (p + 2) / 2)
	case 2:
		return float64(p + 1)
	case 1:
		return 1
	default:
		return 0
	}
}

// AdjacencyGraph builds the weighted element graph at the given level for
// polynomial order p. With FaceOnly, only elements sharing a whole face are
// linked; with FullAdjacency "we provide ... the full adjacency list
// including elements sharing only one vertex".
func (m *TetMesh) AdjacencyGraph(level AdjacencyLevel, p int) *Graph {
	n := len(m.Tets)
	g := &Graph{N: n, Adj: make([][]Edge, n)}

	// Count shared vertices between each element pair via vertex->elements.
	vertElems := make([][]int32, len(m.Verts))
	for e, t := range m.Tets {
		for _, v := range t {
			vertElems[v] = append(vertElems[v], int32(e))
		}
	}
	shared := make(map[[2]int32]int8)
	for _, elems := range vertElems {
		for i := 0; i < len(elems); i++ {
			for j := i + 1; j < len(elems); j++ {
				a, b := elems[i], elems[j]
				if a > b {
					a, b = b, a
				}
				shared[[2]int32{a, b}]++
			}
		}
	}
	for pair, cnt := range shared {
		a, b := int(pair[0]), int(pair[1])
		nShared := int(cnt)
		if level == FaceOnly && nShared < 3 {
			continue
		}
		w := SharedDOFWeight(p, nShared)
		g.Adj[a] = append(g.Adj[a], Edge{To: b, Weight: w})
		g.Adj[b] = append(g.Adj[b], Edge{To: a, Weight: w})
	}
	// The map hands the pairs out in a different order on every call; the
	// partitioner's seeds and tie-breaks follow edge order, so fix it.
	for _, edges := range g.Adj {
		sort.Slice(edges, func(i, j int) bool { return edges[i].To < edges[j].To })
	}
	return g
}

// BoundaryFaces returns the faces belonging to exactly one element (the mesh
// surface).
func (m *TetMesh) BoundaryFaces() [][3]int {
	count := map[face]int{}
	for _, t := range m.Tets {
		for _, f := range tetFaces {
			count[sortedFace(t[f[0]], t[f[1]], t[f[2]])]++
		}
	}
	var out [][3]int
	for f, c := range count {
		if c == 1 {
			out = append(out, [3]int{f[0], f[1], f[2]})
		}
	}
	return out
}
