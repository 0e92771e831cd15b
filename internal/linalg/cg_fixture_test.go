package linalg_test

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"nektarg/internal/linalg"
	"nektarg/internal/sem"
)

// updateCGFixture rewrites testdata/cg_fixture.txt from the CG in this tree.
// The committed file was recorded at de52915, before CGWith learned to test
// convergence ahead of preconditioning, and must not be re-recorded to make
// a CG edit pass: the point of the fixture is that x, Residual, Iterations
// and History do not move by one bit.
var updateCGFixture = flag.Bool("update-cg-fixture", false, "rewrite testdata/cg_fixture.txt")

const cgFixturePath = "testdata/cg_fixture.txt"

// cgFixtureCase is one recorded solve: a fresh-workspace CG run and what it
// returned.
type cgFixtureCase struct {
	name string
	x    []float64
	res  linalg.SolveStats
}

// cgFixtureCases runs the two recorded solves: the badly scaled tridiagonal
// CSR system of TestCGJacobiPreconditionerHelps, and the natural-boundary
// Helmholtz matrix of an order-5, 6-element sem.Mesh1D, both under Jacobi.
func cgFixtureCases(t *testing.T) []cgFixtureCase {
	t.Helper()
	solve := func(name string, m *linalg.CSR, b []float64, tol float64, maxIter int) cgFixtureCase {
		x := make([]float64, m.Rows)
		res, err := linalg.CG(linalg.CSROperator{M: m}, x, b, linalg.NewJacobiPrec(m.Diagonal()), tol, maxIter)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Converged || res.Iterations == 0 {
			t.Fatalf("%s: fixture solve must iterate and converge: %+v", name, res)
		}
		return cgFixtureCase{name: name, x: x, res: res}
	}

	const n = 80
	c := linalg.NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, math.Pow(10, 4*float64(i)/float64(n-1)))
		if i+1 < n {
			c.Add(i, i+1, 0.1)
			c.Add(i+1, i, 0.1)
		}
	}
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}

	mesh := sem.NewMesh1D(sem.NewBasis1D(5), 6, 0, 2)
	helm, mass := mesh.AssembleHelmholtz(3)
	f := make([]float64, mesh.NumNodes())
	for i, x := range mesh.NodeCoords() {
		f[i] = math.Sin(2*x) + 0.25*x*x
	}
	mf := make([]float64, len(f))
	mass.MulVec(mf, f)

	return []cgFixtureCase{
		solve("csr-jacobi", c.ToCSR(), ones, 1e-10, 5000),
		solve("mesh1d-helmholtz", helm, mf, 1e-12, 20*len(f)),
	}
}

func hexFloats(v []float64) string {
	s := make([]string, len(v))
	for i, f := range v {
		s[i] = strconv.FormatFloat(f, 'x', -1, 64)
	}
	return strings.Join(s, " ")
}

func (c cgFixtureCase) String() string {
	return fmt.Sprintf("case %s\niterations %d\nresidual %s\nhistory %s\nx %s\n",
		c.name, c.res.Iterations, hexFloats([]float64{c.res.Residual}), hexFloats(c.res.History), hexFloats(c.x))
}

// TestCGMatchesParentFixture compares CG with the parent commit's CG bit for
// bit. The file holds hex floats, so the comparison of the rendered text is
// the == comparison of every value.
func TestCGMatchesParentFixture(t *testing.T) {
	var got strings.Builder
	for _, c := range cgFixtureCases(t) {
		got.WriteString(c.String())
	}
	if *updateCGFixture {
		if err := os.WriteFile(cgFixturePath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(cgFixturePath)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs from the parent's CG:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("fixture has %d lines, this CG renders %d", len(wl), len(gl))
}

// countingPrec is Jacobi that counts its calls.
type countingPrec struct {
	inner *linalg.JacobiPrec
	calls int
}

func (p *countingPrec) Precondition(z, r []float64) {
	p.calls++
	p.inner.Precondition(z, r)
}

// TestCGPreconditionsOnlyIterationsThatContinue pins the cost contract: the
// residual is preconditioned once per iteration that goes on to update x —
// never on the pass that finds it below tol, so never at all when x0 already
// meets tol — and once per iteration when the budget runs out first.
func TestCGPreconditionsOnlyIterationsThatContinue(t *testing.T) {
	const n = 40
	c := linalg.NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 2+float64(i))
		if i+1 < n {
			c.Add(i, i+1, -1)
			c.Add(i+1, i, -1)
		}
	}
	m := c.ToCSR()
	op := linalg.CSROperator{M: m}
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = math.Cos(float64(i))
	}
	b := make([]float64, n)
	m.MulVec(b, xTrue)

	for _, tc := range []struct {
		name             string
		x0               []float64
		maxIter          int
		converged        bool
		minIter, maxDone int // bounds on Iterations
	}{
		{"exact guess", append([]float64(nil), xTrue...), 100, true, 0, 0},
		{"cold start", make([]float64, n), 100, true, 1, 100},
		{"budget exhausted", make([]float64, n), 3, false, 3, 3},
		{"no budget", make([]float64, n), 0, false, 0, 0},
	} {
		prec := &countingPrec{inner: linalg.NewJacobiPrec(m.Diagonal())}
		res, err := linalg.CG(op, tc.x0, b, prec, 1e-10, tc.maxIter)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Converged != tc.converged || res.Iterations < tc.minIter || res.Iterations > tc.maxDone {
			t.Fatalf("%s: want converged = %v after %d..%d iterations, got %+v", tc.name, tc.converged, tc.minIter, tc.maxDone, res)
		}
		if prec.calls != res.Iterations {
			t.Errorf("%s: %d Precondition calls for %d iterations", tc.name, prec.calls, res.Iterations)
		}
		if len(res.History) != res.Iterations+1 {
			t.Errorf("%s: %d residuals recorded for %d iterations", tc.name, len(res.History), res.Iterations)
		}
	}
}
