package linalg

import "testing"

// laplace1D builds the 1D Dirichlet Laplacian as a CSR matrix — an SPD
// operator whose CG solve takes ~n iterations.
func laplace1D(n int) *CSR {
	b := NewCOO(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 2)
		if i > 0 {
			b.Add(i, i-1, -1)
		}
		if i+1 < n {
			b.Add(i, i+1, -1)
		}
	}
	return b.ToCSR()
}

func solveLaplace(t *testing.T, n, maxIter int, tol float64) SolveStats {
	t.Helper()
	a := CSROperator{M: laplace1D(n)}
	x := make([]float64, n)
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = 1
	}
	st, err := CG(a, x, rhs, nil, tol, maxIter)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCGReportsInitialResidual pins Initial: the relative residual of the
// initial guess, exactly 1 for x0 = 0, kept through a long solve that ends
// far below it, and the final residual when the budget is 0.
func TestCGReportsInitialResidual(t *testing.T) {
	st := solveLaplace(t, 400, 1000, 1e-10)
	if st.Iterations < 100 || !st.Converged {
		t.Fatalf("expected a long converged solve, got %+v", st)
	}
	if st.Initial != 1 {
		t.Fatalf("Initial = %g, want the initial residual 1", st.Initial)
	}
	st = solveLaplace(t, 400, 0, 1e-10)
	if st.Iterations != 0 || st.Initial != 1 || st.Residual != 1 {
		t.Fatalf("no budget: %+v, want Initial = Residual = 1 after 0 iterations", st)
	}
}
