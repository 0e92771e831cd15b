// Package linalg provides the numerical linear algebra that NεκTαr's solvers
// are built on: dense matrices, CSR sparse matrices, (preconditioned)
// conjugate gradients, and a cyclic-Jacobi symmetric eigensolver used by the
// WPOD method of snapshots. Only the standard library is used.
package linalg

import (
	"fmt"
	"math"

	"nektarg/internal/simd"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewDense allocates a zero Rows x Cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: NewDense(%d,%d)", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i,j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i,j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec computes y = M x.
func (m *Dense) MulVec(y, x []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic("linalg: Dense.MulVec dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		y[i] = simd.Dot(m.Row(i), x)
	}
}

// Mul computes C = A B.
func (a *Dense) Mul(b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic("linalg: Dense.Mul dimension mismatch")
	}
	c := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for k, aik := range arow {
			if aik == 0 {
				continue
			}
			simd.Axpy(aik, b.Row(k), crow)
		}
	}
	return c
}

// Transpose returns A^T.
func (m *Dense) Transpose() *Dense {
	t := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// IsSymmetric reports whether |A - A^T| is elementwise within tol.
func (m *Dense) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// SolveLU solves A x = b by Gaussian elimination with partial pivoting on
// copies of A and b, which are not modified, and returns x.
func SolveLU(a *Dense, b []float64) ([]float64, error) {
	x := append([]float64(nil), b...)
	if err := SolveLUInPlace(a.Clone(), x); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveLUInPlace solves A x = b by Gaussian elimination with partial
// pivoting, overwriting b with x and a with its eliminated form; it
// allocates nothing. It backs the small dense Newton systems of the 1D
// solver's junction conditions, which rebuild A and b every iteration. On a
// singular matrix it returns an error and leaves a and b part-eliminated.
func SolveLUInPlace(a *Dense, b []float64) error {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		panic("linalg: SolveLU dimension mismatch")
	}
	for k := 0; k < n; k++ {
		// Partial pivot.
		p, best := k, math.Abs(a.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(a.At(i, k)); v > best {
				p, best = i, v
			}
		}
		if best == 0 {
			return fmt.Errorf("linalg: singular matrix at column %d", k)
		}
		rk := a.Row(k)
		if p != k {
			rp := a.Row(p)
			for j := 0; j < n; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
			b[k], b[p] = b[p], b[k]
		}
		pivinv := 1 / rk[k]
		for i := k + 1; i < n; i++ {
			ri := a.Row(i)
			f := ri[k] * pivinv
			if f == 0 {
				continue
			}
			ri[k] = 0
			for j := k + 1; j < n; j++ {
				ri[j] -= f * rk[j]
			}
			b[i] -= f * b[k]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		ri := a.Row(i)
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= ri[j] * b[j]
		}
		b[i] = s / ri[i]
	}
	return nil
}

// NormInf returns the max absolute entry.
func (m *Dense) NormInf() float64 {
	var v float64
	for _, x := range m.Data {
		if a := math.Abs(x); a > v {
			v = a
		}
	}
	return v
}
