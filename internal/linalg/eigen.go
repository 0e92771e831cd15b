package linalg

import (
	"fmt"
	"math"
	"sort"
)

// EigenSym computes all eigenvalues and eigenvectors of a symmetric matrix
// using the cyclic Jacobi rotation method. It returns eigenvalues in
// descending order with the matching eigenvectors as the columns of V
// (A v_k = λ_k v_k). WPOD correlation matrices are small (Npod ~ O(100)), so
// Jacobi's robustness beats asymptotic speed here.
func EigenSym(a *Dense) (eigvals []float64, v *Dense, err error) {
	n := a.Rows
	if a.Cols != n {
		panic("linalg: EigenSym needs a square matrix")
	}
	if !a.IsSymmetric(1e-9 * (1 + a.NormInf())) {
		return nil, nil, fmt.Errorf("linalg: EigenSym: matrix not symmetric")
	}
	m := a.Clone()
	v = Identity(n)

	offdiag := func() float64 {
		var s float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				s += float64(m.At(i, j) * m.At(i, j))
			}
		}
		return math.Sqrt(s)
	}

	scale := 1 + m.NormInf()
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		if offdiag() <= 1e-13*scale*float64(n) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := m.At(p, q)
				if math.Abs(apq) <= 1e-300 {
					continue
				}
				app := m.At(p, p)
				aqq := m.At(q, q)
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+float64(theta*theta)))
				} else {
					t = -1 / (-theta + math.Sqrt(1+float64(theta*theta)))
				}
				c := 1 / math.Sqrt(1+float64(t*t))
				s := t * c

				// Apply the rotation to rows/columns p and q of m.
				for k := 0; k < n; k++ {
					akp := m.At(k, p)
					akq := m.At(k, q)
					m.Set(k, p, float64(c*akp)-float64(s*akq))
					m.Set(k, q, float64(s*akp)+float64(c*akq))
				}
				for k := 0; k < n; k++ {
					apk := m.At(p, k)
					aqk := m.At(q, k)
					m.Set(p, k, float64(c*apk)-float64(s*aqk))
					m.Set(q, k, float64(s*apk)+float64(c*aqk))
				}
				// Accumulate the eigenvector rotation.
				for k := 0; k < n; k++ {
					vkp := v.At(k, p)
					vkq := v.At(k, q)
					v.Set(k, p, float64(c*vkp)-float64(s*vkq))
					v.Set(k, q, float64(s*vkp)+float64(c*vkq))
				}
			}
		}
	}
	if offdiag() > 1e-8*scale*float64(n) {
		return nil, nil, fmt.Errorf("linalg: EigenSym failed to converge: offdiag=%g", offdiag())
	}

	// Collect and sort eigenpairs descending by eigenvalue.
	type pair struct {
		val float64
		col int
	}
	pairs := make([]pair, n)
	for i := 0; i < n; i++ {
		pairs[i] = pair{m.At(i, i), i}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].val > pairs[b].val })

	eigvals = make([]float64, n)
	sorted := NewDense(n, n)
	for k, p := range pairs {
		eigvals[k] = p.val
		for i := 0; i < n; i++ {
			sorted.Set(i, k, v.At(i, p.col))
		}
	}
	return eigvals, sorted, nil
}
