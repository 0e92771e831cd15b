package partition

import (
	"testing"
	"testing/quick"

	"nektarg/internal/mesh"
)

func carotid(t *testing.T) *mesh.TetMesh {
	t.Helper()
	m := mesh.CarotidTets(16, 4, 4)
	for e, tet := range m.Tets {
		for _, v := range tet {
			if v < 0 || v >= len(m.Verts) {
				t.Fatalf("element %d references vertex %d of %d", e, v, len(m.Verts))
			}
		}
		a := m.Verts[tet[1]].Sub(m.Verts[tet[0]])
		b := m.Verts[tet[2]].Sub(m.Verts[tet[0]])
		c := m.Verts[tet[3]].Sub(m.Verts[tet[0]])
		if a.Cross(b).Dot(c) == 0 {
			t.Fatalf("element %d is degenerate", e)
		}
	}
	return m
}

func TestPartitionCoversAllParts(t *testing.T) {
	m := carotid(t)
	g := m.AdjacencyGraph(mesh.FaceOnly, 6)
	for _, np := range []int{1, 2, 3, 4, 7, 8, 16} {
		parts := Partition(g, np)
		seen := map[int]bool{}
		for _, p := range parts {
			if p < 0 || p >= np {
				t.Fatalf("np=%d: part id %d out of range", np, p)
			}
			seen[p] = true
		}
		if len(seen) != np {
			t.Fatalf("np=%d: only %d parts used", np, len(seen))
		}
	}
}

func TestPartitionBalanced(t *testing.T) {
	m := carotid(t)
	g := m.AdjacencyGraph(mesh.FaceOnly, 6)
	for _, np := range []int{2, 4, 8, 16} {
		parts := Partition(g, np)
		q := Evaluate(g, parts, np)
		if q.Imbalance > 1.05 {
			t.Fatalf("np=%d: imbalance %v", np, q.Imbalance)
		}
	}
}

func TestPartitionBeatsRandomCut(t *testing.T) {
	m := carotid(t)
	g := m.AdjacencyGraph(mesh.FullAdjacency, 6)
	parts := Partition(g, 8)
	q := Evaluate(g, parts, 8)

	// Striped assignment by element id is a weak baseline but respects
	// balance; the partitioner must cut distinctly less weight than a
	// round-robin scatter, which destroys locality entirely.
	scatter := make([]int, g.N)
	for i := range scatter {
		scatter[i] = i % 8
	}
	qScatter := Evaluate(g, scatter, 8)
	if q.EdgeCut >= qScatter.EdgeCut/2 {
		t.Fatalf("partitioner cut %v vs scatter %v: not better", q.EdgeCut, qScatter.EdgeCut)
	}
}

func TestFullAdjacencyWeightingReducesTrueCommVolume(t *testing.T) {
	// The Table 2 claim: partitioning with the full, DOF-weighted adjacency
	// yields lower true communication volume than partitioning that only
	// sees face links. Evaluate both partitions against the *full* graph,
	// which is what the solver actually communicates over.
	m := mesh.CarotidTets(24, 4, 4)
	p := 8
	gFace := m.AdjacencyGraph(mesh.FaceOnly, p)
	gFull := m.AdjacencyGraph(mesh.FullAdjacency, p)
	const np = 8
	partsFace := Partition(gFace, np)
	partsFull := Partition(gFull, np)
	qFace := Evaluate(gFull, partsFace, np)
	qFull := Evaluate(gFull, partsFull, np)
	if qFull.EdgeCut > qFace.EdgeCut*1.02 {
		t.Fatalf("full-adjacency partition cut %v worse than face-only %v",
			qFull.EdgeCut, qFace.EdgeCut)
	}
}

func TestEvaluateKnownSmallGraph(t *testing.T) {
	// Path graph 0-1-2-3 with unit weights, split {0,1} {2,3}: cut = 1,
	// each part's volume = 1.
	g := &mesh.Graph{N: 4, Adj: [][]mesh.Edge{
		{{To: 1, Weight: 1}},
		{{To: 0, Weight: 1}, {To: 2, Weight: 1}},
		{{To: 1, Weight: 1}, {To: 3, Weight: 1}},
		{{To: 2, Weight: 1}},
	}}
	q := Evaluate(g, []int{0, 0, 1, 1}, 2)
	if q.EdgeCut != 1 {
		t.Fatalf("cut = %v", q.EdgeCut)
	}
	if q.MaxPartVolume != 1 || q.TotalVolume != 2 {
		t.Fatalf("vol = %v / %v", q.MaxPartVolume, q.TotalVolume)
	}
	if q.Imbalance != 1 {
		t.Fatalf("imbalance = %v", q.Imbalance)
	}
	if q.MaxNeighbors != 1 {
		t.Fatalf("neighbors = %v", q.MaxNeighbors)
	}
}

func TestPartitionPathGraphOptimal(t *testing.T) {
	// A path of 8 vertices into 2 parts: optimal cut is 1 and the greedy
	// grower + refinement must find it.
	n := 8
	g := &mesh.Graph{N: n, Adj: make([][]mesh.Edge, n)}
	for i := 0; i+1 < n; i++ {
		g.Adj[i] = append(g.Adj[i], mesh.Edge{To: i + 1, Weight: 1})
		g.Adj[i+1] = append(g.Adj[i+1], mesh.Edge{To: i, Weight: 1})
	}
	parts := Partition(g, 2)
	q := Evaluate(g, parts, 2)
	if q.EdgeCut != 1 {
		t.Fatalf("path cut = %v want 1 (parts %v)", q.EdgeCut, parts)
	}
}

func TestPartitionHandlesDisconnectedGraph(t *testing.T) {
	// Two disjoint triangles; 2 parts should cut zero weight.
	g := &mesh.Graph{N: 6, Adj: make([][]mesh.Edge, 6)}
	addTri := func(a, b, c int) {
		for _, pair := range [][2]int{{a, b}, {b, c}, {a, c}} {
			g.Adj[pair[0]] = append(g.Adj[pair[0]], mesh.Edge{To: pair[1], Weight: 1})
			g.Adj[pair[1]] = append(g.Adj[pair[1]], mesh.Edge{To: pair[0], Weight: 1})
		}
	}
	addTri(0, 1, 2)
	addTri(3, 4, 5)
	parts := Partition(g, 2)
	q := Evaluate(g, parts, 2)
	if q.Imbalance != 1 {
		t.Fatalf("imbalance %v", q.Imbalance)
	}
	if q.EdgeCut != 0 {
		t.Fatalf("cut = %v want 0 (parts %v)", q.EdgeCut, parts)
	}
}

func TestPartitionSinglePart(t *testing.T) {
	g := &mesh.Graph{N: 5, Adj: make([][]mesh.Edge, 5)}
	parts := Partition(g, 1)
	for _, p := range parts {
		if p != 0 {
			t.Fatalf("parts = %v", parts)
		}
	}
}

func TestPartitionPropertyBalancedAnyParts(t *testing.T) {
	m := mesh.BoxTets(4, 4, 4, 1, 1, 1)
	g := m.AdjacencyGraph(mesh.FaceOnly, 4)
	f := func(npRaw uint8) bool {
		np := int(npRaw%12) + 1
		parts := Partition(g, np)
		q := Evaluate(g, parts, np)
		return q.Imbalance <= 1.2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
