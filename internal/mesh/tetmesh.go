// Package mesh provides the unstructured tetrahedral meshes and multi-patch
// arterial domain descriptions used by the partitioning study (Table 2), the
// multi-patch scaling replays (Tables 3-4). Generators produce box and
// bent-pipe ("carotid") domains whose element adjacency structure — not
// patient-specific geometry — is what the paper's experiments exercise.
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
		r := pipeR * (1 - float64(narrow*math.Exp(-20*(s-0.5)*(s-0.5))))
		y := float64((v.Y - 0.5) * 2 * r)
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
