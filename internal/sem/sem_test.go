package sem

import (
	"math"
	"testing"
	"testing/quick"
)

func TestJacobiPLowOrders(t *testing.T) {
	// Legendre special cases: P0=1, P1=x, P2=(3x^2-1)/2.
	for _, x := range []float64{-1, -0.3, 0, 0.7, 1} {
		if got := LegendreP(0, x); got != 1 {
			t.Fatalf("P0(%v) = %v", x, got)
		}
		if got := LegendreP(1, x); math.Abs(got-x) > 1e-15 {
			t.Fatalf("P1(%v) = %v", x, got)
		}
		want := (3*x*x - 1) / 2
		if got := LegendreP(2, x); math.Abs(got-want) > 1e-14 {
			t.Fatalf("P2(%v) = %v want %v", x, got, want)
		}
	}
}

func TestJacobiPEndpointValue(t *testing.T) {
	// P_n(1) = 1 for all Legendre polynomials.
	for n := 0; n <= 12; n++ {
		if got := LegendreP(n, 1); math.Abs(got-1) > 1e-12 {
			t.Fatalf("P%d(1) = %v", n, got)
		}
	}
}

func TestJacobiDerivMatchesFiniteDifference(t *testing.T) {
	f := func(nRaw uint8, xRaw float64) bool {
		n := int(nRaw%8) + 1
		x := math.Mod(xRaw, 0.9)
		if math.IsNaN(x) {
			x = 0.3
		}
		h := 1e-6
		fd := (JacobiP(n, 0, 0, x+h) - JacobiP(n, 0, 0, x-h)) / (2 * h)
		an := JacobiPDeriv(n, 0, 0, x)
		return math.Abs(fd-an) < 1e-5*(1+math.Abs(an))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGLLNodesSymmetricAndSorted(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 13} {
		nodes, weights := GLL(n)
		if nodes[0] != -1 || nodes[n-1] != 1 {
			t.Fatalf("n=%d endpoints %v %v", n, nodes[0], nodes[n-1])
		}
		for i := 1; i < n; i++ {
			if nodes[i] <= nodes[i-1] {
				t.Fatalf("n=%d nodes not increasing: %v", n, nodes)
			}
		}
		for i := 0; i < n; i++ {
			if math.Abs(nodes[i]+nodes[n-1-i]) > 1e-13 {
				t.Fatalf("n=%d not symmetric: %v", n, nodes)
			}
			if weights[i] <= 0 {
				t.Fatalf("n=%d nonpositive weight %v", n, weights[i])
			}
		}
	}
}

func TestGLLQuadratureExactness(t *testing.T) {
	// n-point GLL integrates polynomials up to degree 2n-3 exactly.
	for _, n := range []int{3, 5, 8} {
		nodes, weights := GLL(n)
		maxDeg := 2*n - 3
		for deg := 0; deg <= maxDeg; deg++ {
			var got float64
			for i := range nodes {
				got += weights[i] * math.Pow(nodes[i], float64(deg))
			}
			want := 0.0
			if deg%2 == 0 {
				want = 2 / float64(deg+1)
			}
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("n=%d deg=%d: got %v want %v", n, deg, got, want)
			}
		}
	}
}

func TestGLLWeightsSumToTwo(t *testing.T) {
	for _, n := range []int{2, 4, 9, 16} {
		_, w := GLL(n)
		var s float64
		for _, wi := range w {
			s += wi
		}
		if math.Abs(s-2) > 1e-12 {
			t.Fatalf("n=%d sum = %v", n, s)
		}
	}
}

func TestDiffMatrixExactOnPolynomials(t *testing.T) {
	nodes, _ := GLL(7)
	d := DiffMatrix(nodes)
	// Differentiate x^4: derivative 4x^3 is exactly representable.
	u := make([]float64, len(nodes))
	for i, x := range nodes {
		u[i] = math.Pow(x, 4)
	}
	for i := range nodes {
		var du float64
		for j := range nodes {
			du += d[i][j] * u[j]
		}
		want := 4 * math.Pow(nodes[i], 3)
		if math.Abs(du-want) > 1e-11 {
			t.Fatalf("D x^4 at node %d: %v want %v", i, du, want)
		}
	}
}

func TestDiffMatrixAnnihilatesConstants(t *testing.T) {
	nodes, _ := GLL(9)
	d := DiffMatrix(nodes)
	for i := range nodes {
		var s float64
		for j := range nodes {
			s += d[i][j]
		}
		if math.Abs(s) > 1e-11 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

func TestMesh1DNodeLayout(t *testing.T) {
	b := NewBasis1D(4)
	m := NewMesh1D(b, 3, 0, 3)
	if m.NumNodes() != 13 {
		t.Fatalf("nodes = %d", m.NumNodes())
	}
	c := m.NodeCoords()
	if c[0] != 0 || math.Abs(c[len(c)-1]-3) > 1e-14 {
		t.Fatalf("endpoints %v %v", c[0], c[len(c)-1])
	}
	// Element boundary nodes land on integers.
	if math.Abs(c[4]-1) > 1e-13 || math.Abs(c[8]-2) > 1e-13 {
		t.Fatalf("interior boundaries: %v %v", c[4], c[8])
	}
}

func TestHelmholtzManufacturedSolution(t *testing.T) {
	// -u'' + lambda u = f with u = sin(pi x) on [0,1]:
	// f = (pi^2 + lambda) sin(pi x), u(0)=u(1)=0.
	lambda := 2.5
	b := NewBasis1D(8)
	m := NewMesh1D(b, 4, 0, 1)
	coords := m.NodeCoords()
	f := make([]float64, len(coords))
	for i, x := range coords {
		f[i] = (math.Pi*math.Pi + lambda) * math.Sin(math.Pi*x)
	}
	u, err := m.SolveHelmholtzDirichlet(lambda, f, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e := m.L2Error(u, func(x float64) float64 { return math.Sin(math.Pi * x) }); e > 1e-8 {
		t.Fatalf("L2 error = %g", e)
	}
}

func TestHelmholtzSpectralConvergence(t *testing.T) {
	// Error must fall by orders of magnitude as P increases (p-refinement),
	// the defining property of the spectral element method.
	lambda := 1.0
	errAt := func(p int) float64 {
		b := NewBasis1D(p)
		m := NewMesh1D(b, 2, 0, 1)
		coords := m.NodeCoords()
		f := make([]float64, len(coords))
		for i, x := range coords {
			f[i] = (4*math.Pi*math.Pi + lambda) * math.Sin(2*math.Pi*x)
		}
		u, err := m.SolveHelmholtzDirichlet(lambda, f, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return m.L2Error(u, func(x float64) float64 { return math.Sin(2 * math.Pi * x) })
	}
	e4, e8, e12 := errAt(4), errAt(8), errAt(12)
	if !(e8 < e4/100 && e12 < e8) {
		t.Fatalf("no spectral decay: P4 %g, P8 %g, P12 %g", e4, e8, e12)
	}
}

func TestHelmholtzNonzeroDirichlet(t *testing.T) {
	// -u'' = 0 with u(0)=1, u(1)=3 has the linear solution 1+2x.
	b := NewBasis1D(5)
	m := NewMesh1D(b, 3, 0, 1)
	f := make([]float64, m.NumNodes())
	u, err := m.SolveHelmholtzDirichlet(0, f, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if e := m.L2Error(u, func(x float64) float64 { return 1 + 2*x }); e > 1e-10 {
		t.Fatalf("L2 error = %g", e)
	}
}

func TestPanicsOnBadArguments(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("GLL n=1", func() { GLL(1) })
	mustPanic("basis order 0", func() { NewBasis1D(0) })
	mustPanic("jacobi neg degree", func() { JacobiP(-1, 0, 0, 0) })
	mustPanic("mesh empty", func() { NewMesh1D(NewBasis1D(2), 0, 0, 1) })
}

// TestModesDiagonalizePencil checks the generalized eigen-decomposition fast
// diagonalization rests on: SᵀMS = I and SᵀKS = Λ on the kept nodes, zero
// rows on Dirichlet ends, and an exact constant null mode without them.
func TestModesDiagonalizePencil(t *testing.T) {
	for _, c := range []struct {
		name                string
		periodic, dirichlet bool
	}{{"natural", false, false}, {"periodic", true, false}, {"dirichlet", false, true}} {
		m := NewMesh1D(NewBasis1D(5), 3, 0, 1.5)
		md, err := m.Modes(c.periodic, c.dirichlet)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		helm, mass := m.AssembleHelmholtz(0)
		n := m.NumNodes()
		wantNodes, wantModes := n, n
		if c.periodic {
			wantNodes, wantModes = n-1, n-1
		}
		if c.dirichlet {
			wantModes = n - 2
		}
		if md.Nodes != wantNodes || md.Modes != wantModes {
			t.Fatalf("%s: %d nodes x %d modes, want %d x %d", c.name, md.Nodes, md.Modes, wantNodes, wantModes)
		}
		// col(k) is mode k scattered onto the unwrapped mesh nodes.
		col := func(k int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = md.S[(i%md.Nodes)*md.Modes+k]
			}
			return v
		}
		kv, mv := make([]float64, n), make([]float64, n)
		for a := 0; a < md.Modes; a++ {
			va := col(a)
			helm.MulVec(kv, va)
			mass.MulVec(mv, va)
			if c.periodic { // the seam node is one unknown, counted once
				kv[0] += kv[n-1]
				mv[0] += mv[n-1]
				kv[n-1], mv[n-1] = 0, 0
			}
			for b := 0; b < md.Modes; b++ {
				vb := col(b)
				var skb, smb float64
				for i := range vb {
					skb += vb[i] * kv[i]
					smb += vb[i] * mv[i]
				}
				wantK, wantM := 0.0, 0.0
				if a == b {
					wantK, wantM = md.Lambda[a], 1
				}
				if math.Abs(smb-wantM) > 1e-10 || math.Abs(skb-wantK) > 1e-9*(1+md.Lambda[0]) {
					t.Fatalf("%s: modes %d,%d: sMs = %g (want %g), sKs = %g (want %g)", c.name, a, b, smb, wantM, skb, wantK)
				}
			}
		}
		last := col(md.Modes - 1)
		if c.dirichlet {
			if last[0] != 0 || last[n-1] != 0 || md.Lambda[md.Modes-1] <= 0 {
				t.Fatalf("dirichlet: end rows %g, %g and smallest eigenvalue %g", last[0], last[n-1], md.Lambda[md.Modes-1])
			}
		} else if md.Lambda[md.Modes-1] != 0 || last[0] != last[n/2] {
			t.Fatalf("%s: null mode not exact: eigenvalue %g, entries %g vs %g", c.name, md.Lambda[md.Modes-1], last[0], last[n/2])
		}
	}
}

// TestFactors checks the 1D factors the tensor-product operators are built
// from: without the wrap, k and the mass are AssembleHelmholtz(0)'s bit for
// bit; the wrap folds the seam node onto the first; and the averaged
// derivative is exact on a global polynomial of degree P, whose element
// derivatives agree at the shared nodes.
func TestFactors(t *testing.T) {
	m := NewMesh1D(NewBasis1D(5), 3, 0, 1.5)
	n := m.NumNodes()
	helm, mass := m.AssembleHelmholtz(0)
	k, d, m1 := m.Factors(false)
	for i := 0; i < n; i++ {
		if m1[i] != mass.At(i, i) {
			t.Fatalf("mass[%d] = %v, want %v", i, m1[i], mass.At(i, i))
		}
		for j := 0; j < n; j++ {
			if k.At(i, j) != helm.At(i, j) {
				t.Fatalf("k[%d,%d] = %v, want %v", i, j, k.At(i, j), helm.At(i, j))
			}
		}
	}

	kp, dp, mp := m.Factors(true)
	if len(mp) != n-1 || kp.Rows != n-1 || dp.Rows != n-1 {
		t.Fatalf("periodic factors have %d/%d/%d rows, want %d", len(mp), kp.Rows, dp.Rows, n-1)
	}
	if mp[0] != m1[0]+m1[n-1] || kp.At(0, 0) != k.At(0, 0)+k.At(n-1, n-1) || kp.At(0, n-2) != k.At(n-1, n-2) {
		t.Fatalf("periodic seam not folded onto node 0: mass %v, k00 %v, k0,n-2 %v", mp[0], kp.At(0, 0), kp.At(0, n-2))
	}

	x := m.NodeCoords()
	f, df := make([]float64, n), make([]float64, n)
	for i, xi := range x {
		f[i] = math.Pow(xi, 5) - 2*xi
	}
	d.MulVec(df, f)
	for i, xi := range x {
		if want := 5*math.Pow(xi, 4) - 2; math.Abs(df[i]-want) > 1e-11 {
			t.Fatalf("d/dx at x=%v: %v, want %v", xi, df[i], want)
		}
	}
}
