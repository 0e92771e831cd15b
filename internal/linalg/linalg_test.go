package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSPD(rng *rand.Rand, n int) *Dense {
	// A = B^T B + n*I is SPD.
	b := NewDense(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := b.Transpose().Mul(b)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	return a
}

func denseToCSR(a *Dense) *CSR {
	c := NewCOO(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if v := a.At(i, j); v != 0 {
				c.Add(i, j, v)
			}
		}
	}
	return c.ToCSR()
}

func TestDenseMulVec(t *testing.T) {
	m := NewDense(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	y := make([]float64, 2)
	m.MulVec(y, []float64{1, 1, 1})
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("y = %v", y)
	}
}

func TestDenseMulAssociatesWithIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randSPD(rng, 6)
	ai := a.Mul(Identity(6))
	for i := range a.Data {
		if a.Data[i] != ai.Data[i] {
			t.Fatal("A*I != A")
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewDense(4, 7)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	tt := a.Transpose().Transpose()
	for i := range a.Data {
		if a.Data[i] != tt.Data[i] {
			t.Fatal("(A^T)^T != A")
		}
	}
}

func TestSolveLUAgainstKnownSystem(t *testing.T) {
	a := NewDense(3, 3)
	copy(a.Data, []float64{2, 1, 0, 1, 3, 1, 0, 1, 2})
	xTrue := []float64{1, -2, 3}
	b := make([]float64, 3)
	a.MulVec(b, xTrue)
	x, err := SolveLU(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-12 {
			t.Fatalf("x = %v", x)
		}
	}
}

func TestSolveLURandomRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8
		a := randSPD(rng, n)
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		a.MulVec(b, xTrue)
		x, err := SolveLU(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveLUSingular(t *testing.T) {
	a := NewDense(2, 2)
	copy(a.Data, []float64{1, 2, 2, 4})
	if _, err := SolveLU(a, []float64{1, 2}); err == nil {
		t.Fatal("expected singular-matrix error")
	}
}

func TestSolveLUNeedsPivoting(t *testing.T) {
	// Zero pivot in position (0,0) requires a row swap.
	a := NewDense(2, 2)
	copy(a.Data, []float64{0, 1, 1, 0})
	x, err := SolveLU(a, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 7 || x[1] != 3 {
		t.Fatalf("x = %v", x)
	}
}

// refSolveLU is the elimination SolveLU carried before SolveLUInPlace
// existed, element access through At/Set on a clone: the oracle the in-place
// routine must match bit for bit.
func refSolveLU(a *Dense, b []float64) []float64 {
	n := a.Rows
	m := a.Clone()
	x := append([]float64(nil), b...)
	for k := 0; k < n; k++ {
		p, best := k, math.Abs(m.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(m.At(i, k)); v > best {
				p, best = i, v
			}
		}
		if p != k {
			rk, rp := m.Row(k), m.Row(p)
			for j := 0; j < n; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
			x[k], x[p] = x[p], x[k]
		}
		pivinv := 1 / m.At(k, k)
		for i := k + 1; i < n; i++ {
			f := m.At(i, k) * pivinv
			if f == 0 {
				continue
			}
			m.Set(i, k, 0)
			for j := k + 1; j < n; j++ {
				m.Set(i, j, m.At(i, j)-f*m.At(k, j))
			}
			x[i] -= f * x[k]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m.At(i, j) * x[j]
		}
		x[i] = s / m.At(i, i)
	}
	return x
}

// TestSolveLUInPlaceBitwise: a 6x6 system shaped like a bifurcation's Newton
// Jacobian (unit and wave-speed entries in the characteristic rows, a dense
// mass row, pressure rows of magnitude β/2√A with zeros on the diagonal, so
// every later column pivots) and random dense systems give the reference's
// bits; SolveLU leaves its arguments alone and the in-place routine does not.
func TestSolveLUInPlaceBitwise(t *testing.T) {
	junction := NewDense(6, 6)
	copy(junction.Data, []float64{
		36.3, 0, 0, 1, 0, 0,
		0, -51.9, 0, 0, 1, 0,
		0, 0, -49.2, 0, 0, 1,
		1.7, -0.8, -0.9, 0.8, -0.5, -0.53,
		22360.7, -28284.3, 0, 0, 0, 0,
		22360.7, 0, -27500.1, 0, 0, 0,
	})
	systems := []*Dense{junction}
	rng := rand.New(rand.NewSource(6))
	for k := 0; k < 20; k++ {
		a := NewDense(6, 6)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		systems = append(systems, a)
	}
	for k, a := range systems {
		b := make([]float64, 6)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want := refSolveLU(a, b)
		a0, b0 := a.Clone(), append([]float64(nil), b...)
		got, err := SolveLU(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Data {
			if a.Data[i] != a0.Data[i] {
				t.Fatalf("system %d: SolveLU modified A", k)
			}
		}
		for i := range b {
			if b[i] != b0[i] {
				t.Fatalf("system %d: SolveLU modified b", k)
			}
		}
		if err := SolveLUInPlace(a, b); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] || b[i] != want[i] {
				t.Fatalf("system %d: x[%d] = %x (SolveLU) %x (in place), reference %x", k, i, got[i], b[i], want[i])
			}
		}
	}
}

func TestCOOToCSRSumsDuplicates(t *testing.T) {
	c := NewCOO(2, 2)
	c.Add(0, 0, 1)
	c.Add(0, 0, 2)
	c.Add(1, 1, 5)
	m := c.ToCSR()
	if m.NNZ() != 2 {
		t.Fatalf("nnz = %d", m.NNZ())
	}
	if m.At(0, 0) != 3 || m.At(1, 1) != 5 || m.At(0, 1) != 0 {
		t.Fatalf("bad entries: %v", m.Val)
	}
}

func TestCSRMulVecMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewDense(5, 7)
		for i := range a.Data {
			if rng.Float64() < 0.4 {
				a.Data[i] = rng.NormFloat64()
			}
		}
		m := denseToCSR(a)
		x := make([]float64, 7)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		yd := make([]float64, 5)
		ys := make([]float64, 5)
		a.MulVec(yd, x)
		m.MulVec(ys, x)
		for i := range yd {
			if math.Abs(yd[i]-ys[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCSRSymmetryCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randSPD(rng, 6)
	m := denseToCSR(a)
	if !m.IsSymmetric(1e-12) {
		t.Fatal("SPD matrix should be symmetric")
	}
	c := NewCOO(2, 2)
	c.Add(0, 1, 1)
	if c.ToCSR().IsSymmetric(1e-12) {
		t.Fatal("asymmetric matrix detected as symmetric")
	}
}

func TestCGSolvesSPDSystem(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 30
	a := randSPD(rng, n)
	m := denseToCSR(a)
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	m.MulVec(b, xTrue)
	x := make([]float64, n)
	res, err := CG(CSROperator{m}, x, b, nil, 1e-12, 10*n)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("CG did not converge: %+v", res)
	}
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-6 {
			t.Fatalf("x[%d] = %v want %v", i, x[i], xTrue[i])
		}
	}
}

func TestCGJacobiPreconditionerHelps(t *testing.T) {
	// Strongly diagonally scaled system: Jacobi should converge in far
	// fewer iterations than unpreconditioned CG.
	n := 80
	c := NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, math.Pow(10, 4*float64(i)/float64(n-1)))
		if i+1 < n {
			c.Add(i, i+1, 0.1)
			c.Add(i+1, i, 0.1)
		}
	}
	m := c.ToCSR()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	xPlain := make([]float64, n)
	xPrec := make([]float64, n)
	rPlain, err := CG(CSROperator{m}, xPlain, b, nil, 1e-10, 5000)
	if err != nil {
		t.Fatal(err)
	}
	rPrec, err := CG(CSROperator{m}, xPrec, b, NewJacobiPrec(m.Diagonal()), 1e-10, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !rPrec.Converged {
		t.Fatalf("preconditioned CG failed: %+v", rPrec)
	}
	if rPrec.Iterations >= rPlain.Iterations {
		t.Fatalf("Jacobi (%d its) not better than plain (%d its)",
			rPrec.Iterations, rPlain.Iterations)
	}
}

func TestCGZeroRHS(t *testing.T) {
	m := denseToCSR(Identity(4))
	x := []float64{1, 2, 3, 4}
	res, err := CG(CSROperator{m}, x, make([]float64, 4), nil, 1e-12, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("zero RHS should trivially converge")
	}
	for _, v := range x {
		if v != 0 {
			t.Fatalf("x = %v", x)
		}
	}
}

func TestCGWarmStartConverges(t *testing.T) {
	// The paper accelerates convergence by predicting a good initial state;
	// warm-started CG must use strictly fewer iterations than a cold start.
	rng := rand.New(rand.NewSource(17))
	n := 60
	a := randSPD(rng, n)
	m := denseToCSR(a)
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	m.MulVec(b, xTrue)

	cold := make([]float64, n)
	rCold, err := CG(CSROperator{m}, cold, b, nil, 1e-10, 1000)
	if err != nil {
		t.Fatal(err)
	}
	warm := make([]float64, n)
	for i := range warm {
		warm[i] = xTrue[i] + 1e-6*rng.NormFloat64()
	}
	rWarm, err := CG(CSROperator{m}, warm, b, nil, 1e-10, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if rWarm.Iterations >= rCold.Iterations {
		t.Fatalf("warm start (%d) not faster than cold (%d)", rWarm.Iterations, rCold.Iterations)
	}
}

func TestCGBreakdownOnIndefinite(t *testing.T) {
	c := NewCOO(2, 2)
	c.Add(0, 0, 1)
	c.Add(1, 1, -1)
	m := c.ToCSR()
	x := make([]float64, 2)
	_, err := CG(CSROperator{m}, x, []float64{0, 1}, nil, 1e-12, 100)
	if err == nil {
		t.Fatal("expected breakdown on indefinite operator")
	}
}

func TestEigenSymDiagonal(t *testing.T) {
	a := NewDense(3, 3)
	a.Set(0, 0, 2)
	a.Set(1, 1, 7)
	a.Set(2, 2, -1)
	vals, v, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{7, 2, -1}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-10 {
			t.Fatalf("vals = %v", vals)
		}
	}
	// Eigenvectors should be signed unit basis vectors.
	for k := 0; k < 3; k++ {
		var norm float64
		for i := 0; i < 3; i++ {
			norm += v.At(i, k) * v.At(i, k)
		}
		if math.Abs(norm-1) > 1e-10 {
			t.Fatalf("eigvec %d norm = %v", k, norm)
		}
	}
}

func TestEigenSymReconstructsMatrix(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10
		a := randSPD(rng, n)
		vals, v, err := EigenSym(a)
		if err != nil {
			return false
		}
		// Check A v_k = λ_k v_k for each pair.
		av := make([]float64, n)
		for k := 0; k < n; k++ {
			vk := make([]float64, n)
			for i := 0; i < n; i++ {
				vk[i] = v.At(i, k)
			}
			a.MulVec(av, vk)
			for i := 0; i < n; i++ {
				if math.Abs(av[i]-vals[k]*vk[i]) > 1e-7*(1+math.Abs(vals[k])) {
					return false
				}
			}
		}
		// Eigenvalues sorted descending.
		for k := 1; k < n; k++ {
			if vals[k] > vals[k-1]+1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestEigenSymOrthonormalVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := randSPD(rng, 12)
	_, v, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	vtv := v.Transpose().Mul(v)
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(vtv.At(i, j)-want) > 1e-8 {
				t.Fatalf("V^T V (%d,%d) = %v", i, j, vtv.At(i, j))
			}
		}
	}
}

func TestEigenSymRejectsAsymmetric(t *testing.T) {
	a := NewDense(2, 2)
	a.Set(0, 1, 1)
	if _, _, err := EigenSym(a); err == nil {
		t.Fatal("expected error for asymmetric input")
	}
}
