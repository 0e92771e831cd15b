package linalg

import (
	"fmt"
	"sort"
)

// COO accumulates matrix entries in coordinate form during assembly; the
// spectral-element stiffness/mass assembly adds many contributions per entry
// before conversion to CSR.
type COO struct {
	Rows, Cols int
	I, J       []int
	V          []float64
}

// NewCOO returns an empty rows x cols accumulator.
func NewCOO(rows, cols int) *COO {
	return &COO{Rows: rows, Cols: cols}
}

// Add accumulates v into entry (i, j).
func (c *COO) Add(i, j int, v float64) {
	if i < 0 || i >= c.Rows || j < 0 || j >= c.Cols {
		panic(fmt.Sprintf("linalg: COO.Add(%d,%d) out of %dx%d", i, j, c.Rows, c.Cols))
	}
	c.I = append(c.I, i)
	c.J = append(c.J, j)
	c.V = append(c.V, v)
}

// ToCSR sums duplicates and converts to compressed sparse row form.
func (c *COO) ToCSR() *CSR {
	type key struct{ i, j int }
	merged := make(map[key]float64, len(c.V))
	for k := range c.V {
		merged[key{c.I[k], c.J[k]}] += c.V[k]
	}
	keys := make([]key, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].i != keys[b].i {
			return keys[a].i < keys[b].i
		}
		return keys[a].j < keys[b].j
	})
	m := &CSR{
		Rows:   c.Rows,
		Cols:   c.Cols,
		RowPtr: make([]int, c.Rows+1),
		ColIdx: make([]int, 0, len(keys)),
		Val:    make([]float64, 0, len(keys)),
	}
	for _, k := range keys {
		for r := k.i + 1; r <= c.Rows; r++ {
			m.RowPtr[r]++
		}
		m.ColIdx = append(m.ColIdx, k.j)
		m.Val = append(m.Val, merged[k])
	}
	return m
}

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float64
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// MulVec computes y = M x.
func (m *CSR) MulVec(y, x []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic("linalg: CSR.MulVec dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		var s float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += float64(m.Val[k] * x[m.ColIdx[k]])
		}
		y[i] = s
	}
}

// At returns entry (i, j), zero if not stored.
func (m *CSR) At(i, j int) float64 {
	for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
		if m.ColIdx[k] == j {
			return m.Val[k]
		}
	}
	return 0
}

// Diagonal returns a copy of the main diagonal (zeros where unset); it feeds
// the Jacobi preconditioner.
func (m *CSR) Diagonal() []float64 {
	d := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		d[i] = m.At(i, i)
	}
	return d
}

// IsSymmetric reports whether the stored pattern and values are symmetric to
// within tol. CG requires it.
func (m *CSR) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			if d := m.Val[k] - m.At(j, i); d > tol || d < -tol {
				return false
			}
		}
	}
	return true
}
