package simd

import (
	"fmt"
	"math/rand"
	"testing"
)

// naiveMatVec is the loop shape the line kernels replace; the tuned variants
// must match it bit-for-bit, not to a tolerance.
func naiveMatVec(y, a, x []float64, rows, cols int) {
	for r := 0; r < rows; r++ {
		var s float64
		for c := 0; c < cols; c++ {
			s += a[r*cols+c] * x[c]
		}
		y[r] = s
	}
}

// TestMatVecBitIdentical covers every shape the 4-row blocks and the 3-, 2-
// and 1-row remainders can meet, rows and cols 1…9 (nq = 2…9 are the orders
// the grids run at), plus one wider case.
func TestMatVecBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dims := [][2]int{{13, 6}}
	for rows := 1; rows <= 9; rows++ {
		for cols := 1; cols <= 9; cols++ {
			dims = append(dims, [2]int{rows, cols})
		}
	}
	for _, dim := range dims {
		rows, cols := dim[0], dim[1]
		a := make([]float64, rows*cols)
		x := make([]float64, cols)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, rows)
		got := make([]float64, rows)
		naiveMatVec(want, a, x, rows, cols)
		MatVec(got, a, x, rows, cols)
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("MatVec %dx%d row %d: %v != %v", rows, cols, r, got[r], want[r])
			}
		}
	}
}

func TestXpayBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 3, 4, 17, 100} {
		x := make([]float64, n)
		y0 := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y0[i] = rng.NormFloat64()
		}
		alpha := rng.NormFloat64()

		want := make([]float64, n)
		got := make([]float64, n)
		copy(want, y0)
		copy(got, y0)
		for i := range want {
			want[i] = x[i] + alpha*want[i]
		}
		Xpay(alpha, x, got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Xpay n=%d i=%d: %v != %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestMatVecPanicsOnShortSlices(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatVec(make([]float64, 2), make([]float64, 4), make([]float64, 2), 3, 2)
}

// BenchmarkKernelMatVec times the line product at the two sizes the bench/
// workloads run most: nq = 5 (order 4: one 4-row block and one row) and
// nq = 7 (order 6: a 4-row and a 3-row block).
func BenchmarkKernelMatVec(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, nq := range []int{5, 7} {
		b.Run(fmt.Sprintf("nq=%d", nq), func(b *testing.B) {
			a := make([]float64, nq*nq)
			x := make([]float64, nq)
			y := make([]float64, nq)
			for i := range a {
				a[i] = rng.NormFloat64()
			}
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatVec(y, a, x, nq, nq)
			}
		})
	}
}
