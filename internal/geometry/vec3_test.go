package geometry

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVecBasicAlgebra(t *testing.T) {
	v := Vec3{1, 2, 3}
	w := Vec3{-4, 5, 0.5}
	if got := v.Add(w); got != (Vec3{-3, 7, 3.5}) {
		t.Fatalf("Add = %v", got)
	}
	if got := v.Sub(w); got != (Vec3{5, -3, 2.5}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := v.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Fatalf("Scale = %v", got)
	}
	if got := v.Dot(w); got != -4+10+1.5 {
		t.Fatalf("Dot = %v", got)
	}
	if got := v.Mul(w); got != (Vec3{-4, 10, 1.5}) {
		t.Fatalf("Mul = %v", got)
	}
}

func randUnitish(rng *rand.Rand) Vec3 {
	return Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
}

func TestCrossOrthogonality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randUnitish(rng), randUnitish(rng)
		c := a.Cross(b)
		scale := a.Norm()*b.Norm() + 1
		return almostEq(c.Dot(a)/scale, 0, 1e-9) && almostEq(c.Dot(b)/scale, 0, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCrossAnticommutes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randUnitish(rng), randUnitish(rng)
		c1 := a.Cross(b)
		c2 := b.Cross(a).Scale(-1)
		return c1.Sub(c2).Norm() <= 1e-12*(1+c1.Norm())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalized(t *testing.T) {
	v := Vec3{3, 4, 0}
	n := v.Normalized()
	if !almostEq(n.Norm(), 1, 1e-14) {
		t.Fatalf("|n| = %v", n.Norm())
	}
	if !almostEq(n.X, 0.6, 1e-14) || !almostEq(n.Y, 0.8, 1e-14) {
		t.Fatalf("n = %v", n)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero vector")
		}
	}()
	Vec3{}.Normalized()
}

func TestAABBContainsItsPoints(t *testing.T) {
	// Extending a box by a point it contains leaves it unchanged.
	f := func(pts []Vec3) bool {
		b := NewAABB(pts...)
		for _, p := range pts {
			if b.Extend(p) != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAABBEmpty(t *testing.T) {
	// The empty box contains nothing: extending it by a point yields the
	// degenerate box at that point.
	p := Vec3{1, -2, 3}
	if got := NewAABB().Extend(p); got != (AABB{Min: p, Max: p}) {
		t.Fatalf("empty box extended by %v = %+v", p, got)
	}
}

func TestAABBUnion(t *testing.T) {
	a := NewAABB(Vec3{0, 0, 0}, Vec3{1, 1, 1})
	b := NewAABB(Vec3{2, -1, 0.5}, Vec3{3, 0, 2})
	if u, want := a.Union(b), (AABB{Min: Vec3{0, -1, 0}, Max: Vec3{3, 1, 2}}); u != want {
		t.Fatalf("union = %+v, want %+v", u, want)
	}
}
