package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// spdLaplacian builds the standard 1D Poisson matrix (SPD, tridiagonal).
func spdLaplacian(n int) *CSR {
	c := NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 2)
		if i > 0 {
			c.Add(i, i-1, -1)
		}
		if i < n-1 {
			c.Add(i, i+1, -1)
		}
	}
	return c.ToCSR()
}

// TestCGBreakdownReportsDivergencePoint pins the breakdown-path bugfix: on an
// indefinite operator CG must return ErrCGBreakdown with the residual of the
// iterate it actually died on, a sealed history whose last entry matches that
// residual, and the count of completed iterations — not the stats of the
// previous iteration.
func TestCGBreakdownReportsDivergencePoint(t *testing.T) {
	c := NewCOO(2, 2)
	c.Add(0, 0, 1)
	c.Add(1, 1, -1)
	m := c.ToCSR()
	x := make([]float64, 2)
	b := []float64{0, 1}
	res, err := CG(CSROperator{m}, x, b, nil, 1e-12, 100)
	if !errors.Is(err, ErrCGBreakdown) {
		t.Fatalf("err = %v, want ErrCGBreakdown", err)
	}
	// x was never updated (breakdown on the first apply), so r = b and the
	// true relative residual is exactly 1.
	if res.Residual != 1 {
		t.Fatalf("Residual = %v, want 1 (refreshed at the divergence point)", res.Residual)
	}
	if res.Iterations != 0 {
		t.Fatalf("Iterations = %d, want 0 completed iterations", res.Iterations)
	}
	if res.Initial != 1 {
		t.Fatalf("Initial = %v, want 1", res.Initial)
	}
	if res.Converged {
		t.Fatal("breakdown marked converged")
	}
}

// TestCGWithMatchesCG pins workspace reuse bit-identical to fresh
// allocation, including across solves that dirty the scratch.
func TestCGWithMatchesCG(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := spdLaplacian(57)
	var ws CGWorkspace
	for trial := 0; trial < 4; trial++ {
		b := make([]float64, 57)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xFresh := make([]float64, 57)
		xWs := make([]float64, 57)
		rFresh, errFresh := CG(CSROperator{m}, xFresh, b, nil, 1e-11, 500)
		rWs, errWs := CGWith(&ws, CSROperator{m}, xWs, b, nil, 1e-11, 500)
		if (errFresh == nil) != (errWs == nil) {
			t.Fatalf("trial %d: err mismatch %v vs %v", trial, errFresh, errWs)
		}
		if rFresh != rWs {
			t.Fatalf("trial %d: stats diverge: %+v vs %+v", trial, rFresh, rWs)
		}
		for i := range xFresh {
			if xFresh[i] != xWs[i] {
				t.Fatalf("trial %d: x[%d] = %v vs %v (not bit-identical)", trial, i, xFresh[i], xWs[i])
			}
		}
	}
}

// TestCGWithZeroAlloc pins the tentpole contract: a steady-state CG solve
// with a warmed workspace and persistent preconditioner performs zero
// allocations.
func TestCGWithZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	n := 64
	m := spdLaplacian(n)
	diag := make([]float64, n)
	for i := range diag {
		diag[i] = 2
	}
	prec := NewJacobiPrec(diag)
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	x := make([]float64, n)
	var ws CGWorkspace
	op := CSROperator{m}
	if _, err := CGWith(&ws, op, x, b, prec, 1e-10, 500); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for i := range x {
			x[i] = 0
		}
		if _, err := CGWith(&ws, op, x, b, prec, 1e-10, 500); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("CGWith allocated %.1f allocs/op in steady state, want 0", allocs)
	}
}

// TestJacobiSetDiagInPlace verifies SetDiag reuses the buffer and matches
// NewJacobiPrec semantics (zero diagonal entries become 1).
func TestJacobiSetDiagInPlace(t *testing.T) {
	p := NewJacobiPrec([]float64{2, 4, 0, 8})
	buf := &p.InvDiag[0]
	p.SetDiag([]float64{4, 0, 2, 16})
	if &p.InvDiag[0] != buf {
		t.Fatal("SetDiag reallocated for same-size diagonal")
	}
	want := []float64{0.25, 1, 0.5, 0.0625}
	for i, w := range want {
		if p.InvDiag[i] != w {
			t.Fatalf("InvDiag[%d] = %v, want %v", i, p.InvDiag[i], w)
		}
	}
	allocs := testing.AllocsPerRun(10, func() { p.SetDiag(want) })
	if !raceEnabled && allocs != 0 {
		t.Fatalf("SetDiag allocated %.1f allocs/op, want 0", allocs)
	}
}
