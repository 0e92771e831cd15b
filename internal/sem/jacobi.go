// Package sem provides the spectral/hp element machinery underlying
// NεκTαr-3D and NεκTαr-1D: Jacobi polynomials, Gauss-Lobatto-Legendre
// quadrature, collocation differentiation matrices and 1D element operators.
// The 3D solver composes these as tensor products (package nektar3d); this
// package also proves spectral accuracy on manufactured problems.
package sem

import (
	"fmt"
	"math"
)

// JacobiP evaluates the Jacobi polynomial P_n^{(alpha,beta)}(x) by the
// standard three-term recurrence.
func JacobiP(n int, alpha, beta, x float64) float64 {
	if n < 0 {
		panic(fmt.Sprintf("sem: JacobiP degree %d", n))
	}
	if n == 0 {
		return 1
	}
	p0 := 1.0
	p1 := float64(0.5*(alpha-beta)) + float64(0.5*(alpha+beta+2)*x)
	if n == 1 {
		return p1
	}
	for k := 1; k < n; k++ {
		kf := float64(k)
		a1 := 2 * (kf + 1) * (kf + alpha + beta + 1) * (float64(2*kf) + alpha + beta)
		a2 := (float64(2*kf) + alpha + beta + 1) * (float64(alpha*alpha) - float64(beta*beta))
		a3 := (float64(2*kf) + alpha + beta) * (float64(2*kf) + alpha + beta + 1) * (float64(2*kf) + alpha + beta + 2)
		a4 := 2 * (kf + alpha) * (kf + beta) * (float64(2*kf) + alpha + beta + 2)
		p2 := (float64((float64(a2)+float64(a3*x))*p1) - float64(a4*p0)) / a1
		p0, p1 = p1, p2
	}
	return p1
}

// JacobiPDeriv evaluates d/dx P_n^{(alpha,beta)}(x) using the derivative
// identity P_n' = 0.5 (n+alpha+beta+1) P_{n-1}^{(alpha+1,beta+1)}.
func JacobiPDeriv(n int, alpha, beta, x float64) float64 {
	if n == 0 {
		return 0
	}
	return 0.5 * (float64(n) + alpha + beta + 1) * JacobiP(n-1, alpha+1, beta+1, x)
}

// LegendreP evaluates the Legendre polynomial P_n(x).
func LegendreP(n int, x float64) float64 { return JacobiP(n, 0, 0, x) }

// GLL returns the n Gauss-Lobatto-Legendre nodes and weights on [-1, 1]
// (n >= 2). Interior nodes are the roots of P'_{n-1}, found by Newton
// iteration from Chebyshev-Gauss-Lobatto estimates; weights are
// 2 / (n(n-1) P_{n-1}(x)^2).
func GLL(n int) (nodes, weights []float64) {
	if n < 2 {
		panic(fmt.Sprintf("sem: GLL needs n >= 2, got %d", n))
	}
	nodes = make([]float64, n)
	weights = make([]float64, n)
	nodes[0], nodes[n-1] = -1, 1
	m := n - 1
	for i := 1; i < m; i++ {
		// Chebyshev-Lobatto initial guess.
		x := -math.Cos(math.Pi * float64(i) / float64(m))
		for iter := 0; iter < 100; iter++ {
			// f = P'_m(x); f' via the Legendre ODE:
			// (1-x^2) P''_m = 2x P'_m - m(m+1) P_m.
			f := JacobiPDeriv(m, 0, 0, x)
			fp := (float64(2*x*f) - float64(float64(m*(m+1))*LegendreP(m, x))) / (1 - float64(x*x))
			dx := f / fp
			x -= dx
			if math.Abs(dx) < 1e-15 {
				break
			}
		}
		nodes[i] = x
	}
	for i := 0; i < n; i++ {
		p := LegendreP(m, nodes[i])
		weights[i] = 2 / (float64(m*(m+1)) * p * p)
	}
	return nodes, weights
}

// DiffMatrix returns the collocation differentiation matrix D on the given
// distinct nodes: (D u)[i] = u'(x_i) for u the interpolating polynomial.
// Built from barycentric weights for numerical stability.
func DiffMatrix(nodes []float64) [][]float64 {
	n := len(nodes)
	if n < 2 {
		panic("sem: DiffMatrix needs >= 2 nodes")
	}
	// Barycentric weights.
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
		for j := range nodes {
			if j != i {
				w[i] /= nodes[i] - nodes[j]
			}
		}
	}
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		var diag float64
		for j := range nodes {
			if j == i {
				continue
			}
			d[i][j] = (w[j] / w[i]) / (nodes[i] - nodes[j])
			diag -= d[i][j]
		}
		d[i][i] = diag
	}
	return d
}
