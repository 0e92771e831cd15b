package geometry

import (
	"math"
	"testing"
)

func TestTriangleAreaAndNormal(t *testing.T) {
	tri := Triangle{Vec3{0, 0, 0}, Vec3{1, 0, 0}, Vec3{0, 1, 0}}
	if !almostEq(tri.Area(), 0.5, 1e-14) {
		t.Fatalf("area = %v", tri.Area())
	}
	n := tri.UnitNormal()
	if n.Sub(Vec3{0, 0, 1}).Norm() > 1e-14 {
		t.Fatalf("normal = %v", n)
	}
	c := tri.Centroid()
	want := Vec3{1.0 / 3, 1.0 / 3, 0}
	if c.Sub(want).Norm() > 1e-14 {
		t.Fatalf("centroid = %v", c)
	}
}

func TestPlanarRectAreaMatchesAnalytic(t *testing.T) {
	s := PlanarRect("gamma1", Vec3{0, 0, 0}, Vec3{2, 0, 0}, Vec3{0, 3, 0}, 4, 6)
	if got := len(s.Triangles); got != 2*4*6 {
		t.Fatalf("triangle count = %d", got)
	}
	var area float64
	for _, tri := range s.Triangles {
		area += tri.Area()
	}
	if !almostEq(area, 6, 1e-12) {
		t.Fatalf("area = %v", area)
	}
	// All centroids lie in the rectangle's plane and interior.
	for _, c := range s.Centroids() {
		if c.Z != 0 || c.X < 0 || c.X > 2 || c.Y < 0 || c.Y > 3 {
			t.Fatalf("centroid out of rect: %v", c)
		}
	}
}

func TestSphereSurfaceAreaConverges(t *testing.T) {
	r := 1.3
	exact := 4 * math.Pi * r * r
	var fine float64
	for _, tri := range SphereSurface("dome", Vec3{1, 2, 3}, r, 48, 96).Triangles {
		fine += tri.Area()
	}
	if math.Abs(fine-exact)/exact > 0.01 {
		t.Fatalf("sphere area %v vs exact %v", fine, exact)
	}
}

func TestSurfaceBounds(t *testing.T) {
	s := SphereSurface("dome", Vec3{Z: 2}, 1, 8, 16)
	b := s.Bounds()
	if b.Min.Z != 1 || b.Max.Z != 3 {
		t.Fatalf("z bounds = [%v, %v]", b.Min.Z, b.Max.Z)
	}
	if b.Max.X > 1+1e-12 || b.Min.X < -1-1e-12 {
		t.Fatalf("x bounds = [%v, %v]", b.Min.X, b.Max.X)
	}
}

func TestPlanarRectPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PlanarRect("bad", Vec3{}, Vec3{1, 0, 0}, Vec3{0, 1, 0}, 0, 1)
}
