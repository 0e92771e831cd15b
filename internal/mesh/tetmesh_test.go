package mesh

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"nektarg/internal/geometry"
)

// checkTets fails t unless every tet of m references vertices in range and
// spans a non-zero volume.
func checkTets(t *testing.T, m *TetMesh) {
	t.Helper()
	for e, tet := range m.Tets {
		for _, v := range tet {
			if v < 0 || v >= len(m.Verts) {
				t.Fatalf("element %d references vertex %d of %d", e, v, len(m.Verts))
			}
		}
		a := m.Verts[tet[1]].Sub(m.Verts[tet[0]])
		b := m.Verts[tet[2]].Sub(m.Verts[tet[0]])
		c := m.Verts[tet[3]].Sub(m.Verts[tet[0]])
		if math.Abs(a.Cross(b).Dot(c)) < 1e-300 {
			t.Fatalf("element %d is degenerate", e)
		}
	}
}

// checkDomain fails t unless every interface of d links two distinct patches
// in range through a non-empty overlap.
func checkDomain(t *testing.T, d *MultiPatchDomain) {
	t.Helper()
	for k, f := range d.Interfaces {
		if f.A < 0 || f.A >= len(d.Patches) || f.B < 0 || f.B >= len(d.Patches) || f.A == f.B {
			t.Fatalf("interface %d links %d-%d of %d patches", k, f.A, f.B, len(d.Patches))
		}
		if f.OverlapElements < 1 || f.InterfaceFaces < 1 {
			t.Fatalf("interface %d has empty overlap: %+v", k, f)
		}
	}
}

func TestBoxTetsCounts(t *testing.T) {
	m := BoxTets(2, 3, 4, 1, 1, 1)
	checkTets(t, m)
	if len(m.Verts) != 3*4*5 {
		t.Fatalf("verts = %d", len(m.Verts))
	}
	if len(m.Tets) != 5*2*3*4 {
		t.Fatalf("tets = %d", len(m.Tets))
	}
}

func TestBoxTetsVolumeIsExact(t *testing.T) {
	// The 5-tet decomposition must tile the box exactly.
	m := BoxTets(3, 3, 3, 2, 3, 4)
	var v float64
	for _, tet := range m.Tets {
		a := m.Verts[tet[1]].Sub(m.Verts[tet[0]])
		b := m.Verts[tet[2]].Sub(m.Verts[tet[0]])
		c := m.Verts[tet[3]].Sub(m.Verts[tet[0]])
		v += math.Abs(a.Cross(b).Dot(c)) / 6
	}
	if math.Abs(v-24) > 1e-10 {
		t.Fatalf("volume = %v want 24", v)
	}
}

func TestBoxTetsConformingFaces(t *testing.T) {
	// Every interior face must be shared by exactly 2 tets; counts of 1 are
	// boundary. Any other count means non-conforming decomposition.
	m := BoxTets(2, 2, 2, 1, 1, 1)
	count := map[[3]int]int{}
	for _, tet := range m.Tets {
		for _, f := range [4][3]int{{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}} {
			face := [3]int{tet[f[0]], tet[f[1]], tet[f[2]]}
			sort.Ints(face[:])
			count[face]++
		}
	}
	for f, c := range count {
		if c != 1 && c != 2 {
			t.Fatalf("face %v shared by %d elements", f, c)
		}
	}
}

func TestCarotidTetsIsValidAndBent(t *testing.T) {
	m := CarotidTets(20, 4, 4)
	checkTets(t, m)
	checkTets(t, CarotidTets(16, 4, 4))
	b := geometry.NewAABB(m.Verts...)
	// The bend must spread the domain in both X and Y.
	if b.Max.X-b.Min.X < 1 || b.Max.Y-b.Min.Y < 0.5 {
		t.Fatalf("domain not bent: %+v", b)
	}
}

func TestSharedDOFWeightMonotone(t *testing.T) {
	for p := 2; p <= 12; p++ {
		face := SharedDOFWeight(p, 3)
		edge := SharedDOFWeight(p, 2)
		vert := SharedDOFWeight(p, 1)
		if !(face > edge && edge > vert && vert == 1) {
			t.Fatalf("p=%d: face %v edge %v vert %v", p, face, edge, vert)
		}
	}
	if SharedDOFWeight(5, 0) != 0 {
		t.Fatal("no sharing should weigh 0")
	}
}

func TestAdjacencyFullSupersetOfFaceOnly(t *testing.T) {
	m := BoxTets(3, 3, 3, 1, 1, 1)
	gFace := m.AdjacencyGraph(FaceOnly, 6)
	gFull := m.AdjacencyGraph(FullAdjacency, 6)
	var nFace, nFull int
	for e := 0; e < gFace.N; e++ {
		nFace += len(gFace.Adj[e])
		nFull += len(gFull.Adj[e])
	}
	if nFull <= nFace {
		t.Fatalf("full adjacency (%d) should exceed face-only (%d)", nFull, nFace)
	}
	// Face adjacency in a tet mesh: every element has <= 4 face neighbors.
	for e := 0; e < gFace.N; e++ {
		if len(gFace.Adj[e]) > 4 {
			t.Fatalf("element %d has %d face neighbors", e, len(gFace.Adj[e]))
		}
	}
	// The paper observes O(10)-O(100) neighbors with vertex sharing.
	var maxFull int
	for e := 0; e < gFull.N; e++ {
		if len(gFull.Adj[e]) > maxFull {
			maxFull = len(gFull.Adj[e])
		}
	}
	if maxFull < 10 {
		t.Fatalf("full adjacency max degree = %d, expected O(10)+", maxFull)
	}
}

func TestAdjacencyGraphSymmetric(t *testing.T) {
	m := CarotidTets(6, 3, 3)
	g := m.AdjacencyGraph(FullAdjacency, 4)
	for a := 0; a < g.N; a++ {
		for _, e := range g.Adj[a] {
			found := false
			for _, back := range g.Adj[e.To] {
				if back.To == a && back.Weight == e.Weight {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d->%d not mirrored", a, e.To)
			}
		}
	}
}

func TestChainDomainShape(t *testing.T) {
	d := ChainDomain(4, PaperPatchElements, PaperOverlapElements)
	checkDomain(t, d)
	if len(d.Patches) != 4 || len(d.Interfaces) != 3 {
		t.Fatalf("patches=%d interfaces=%d", len(d.Patches), len(d.Interfaces))
	}
	if d.TotalElements() != 4*PaperPatchElements {
		t.Fatalf("total = %d", d.TotalElements())
	}
}

func TestChainDomainDOFMatchesPaperScale(t *testing.T) {
	// Table 3: 3 patches at P=10 give ~0.384 billion DOF. Our modal count
	// should land within a factor ~2 of that (the paper's counts include
	// solver-internal fields).
	d := ChainDomain(3, PaperPatchElements, PaperOverlapElements)
	dof := d.DOF(10, 4)
	if dof < 0.15e9 || dof > 0.8e9 {
		t.Fatalf("3-patch P=10 DOF = %g, expected ~0.4e9", dof)
	}
	// And 16 patches ~2.085B: ratio must scale linearly with patches.
	d16 := ChainDomain(16, PaperPatchElements, PaperOverlapElements)
	ratio := d16.DOF(10, 4) / dof
	if math.Abs(ratio-16.0/3.0) > 1e-9 {
		t.Fatalf("DOF ratio = %v", ratio)
	}
}

func TestChainDomainProperty(t *testing.T) {
	f := func(npRaw uint8) bool {
		np := int(npRaw%10) + 1
		d := ChainDomain(np, 100, 10)
		checkDomain(t, d)
		return len(d.Interfaces) == np-1 && d.TotalElements() == np*100
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
