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
	f := func(pts []Vec3) bool {
		b := NewAABB(pts...)
		for _, p := range pts {
			if !b.Contains(p) {
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
	b := NewAABB()
	if b.Contains(Vec3{0, 0, 0}) {
		t.Fatal("empty box should contain nothing")
	}
	if b.Volume() != 0 {
		t.Fatalf("empty box volume = %v", b.Volume())
	}
}

func TestAABBIntersects(t *testing.T) {
	a := NewAABB(Vec3{0, 0, 0}, Vec3{1, 1, 1})
	b := NewAABB(Vec3{0.5, 0.5, 0.5}, Vec3{2, 2, 2})
	c := NewAABB(Vec3{3, 3, 3}, Vec3{4, 4, 4})
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Fatal("a and b should intersect")
	}
	if a.Intersects(c) {
		t.Fatal("a and c should not intersect")
	}
	// Shared-face contact counts as intersection (closed boxes).
	d := NewAABB(Vec3{1, 0, 0}, Vec3{2, 1, 1})
	if !a.Intersects(d) {
		t.Fatal("face contact should intersect")
	}
}

func TestAABBVolumeAndCenter(t *testing.T) {
	b := NewAABB(Vec3{-1, -2, -3}, Vec3{1, 2, 3})
	if !almostEq(b.Volume(), 2*4*6, 1e-12) {
		t.Fatalf("volume = %v", b.Volume())
	}
	if b.Center() != (Vec3{0, 0, 0}) {
		t.Fatalf("center = %v", b.Center())
	}
}

func TestAABBUnion(t *testing.T) {
	a := NewAABB(Vec3{0, 0, 0}, Vec3{1, 1, 1})
	b := NewAABB(Vec3{2, -1, 0.5}, Vec3{3, 0, 2})
	u := a.Union(b)
	for _, p := range []Vec3{{0, 0, 0}, {1, 1, 1}, {2, -1, 0.5}, {3, 0, 2}} {
		if !u.Contains(p) {
			t.Fatalf("union misses %v", p)
		}
	}
}
