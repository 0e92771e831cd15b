package simd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestMulTunedMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 63, 64, 1001} {
		x := randVec(rng, n)
		y := randVec(rng, n)
		zs := make([]float64, n)
		zt := make([]float64, n)
		MulScalar(zs, x, y)
		MulTuned(zt, x, y)
		for i := range zs {
			if zs[i] != zt[i] {
				t.Fatalf("n=%d i=%d: scalar %v tuned %v", n, i, zs[i], zt[i])
			}
		}
	}
}

func TestDot3TunedMatchesScalar(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw % 512)
		rng := rand.New(rand.NewSource(seed))
		x := randVec(rng, n)
		y := randVec(rng, n)
		z := randVec(rng, n)
		a := Dot3Scalar(x, y, z)
		b := Dot3Tuned(x, y, z)
		scale := 1.0
		for i := 0; i < n; i++ {
			scale += math.Abs(x[i] * y[i] * z[i])
		}
		return math.Abs(a-b) <= 1e-12*scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDotSqTunedMatchesScalar(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw % 512)
		rng := rand.New(rand.NewSource(seed))
		x := randVec(rng, n)
		y := randVec(rng, n)
		a := DotSqScalar(x, y)
		b := DotSqTuned(x, y)
		scale := 1.0
		for i := 0; i < n; i++ {
			scale += math.Abs(x[i] * y[i] * y[i])
		}
		return math.Abs(a-b) <= 1e-12*scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAxpy(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{10, 20, 30, 40, 50}
	Axpy(2, x, y)
	want := []float64{12, 24, 36, 48, 60}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("y = %v", y)
		}
	}
}

func TestDotKnownValue(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if got := Dot(x, y); got != 32 {
		t.Fatalf("Dot = %v", got)
	}
}

func TestDotEmptyAndSmall(t *testing.T) {
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil) = %v", got)
	}
	if got := Dot([]float64{2}, []float64{3}); got != 6 {
		t.Fatalf("Dot tail = %v", got)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	cases := []func(){
		func() { MulScalar(make([]float64, 2), make([]float64, 3), make([]float64, 3)) },
		func() { MulTuned(make([]float64, 3), make([]float64, 3), make([]float64, 2)) },
		func() { Dot3Scalar(make([]float64, 1), make([]float64, 2), make([]float64, 1)) },
		func() { Dot3Tuned(make([]float64, 1), make([]float64, 1), make([]float64, 2)) },
		func() { DotSqScalar(make([]float64, 1), make([]float64, 2)) },
		func() { DotSqTuned(make([]float64, 2), make([]float64, 1)) },
		func() { Axpy(1, make([]float64, 1), make([]float64, 2)) },
		func() { Dot(make([]float64, 1), make([]float64, 2)) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}
