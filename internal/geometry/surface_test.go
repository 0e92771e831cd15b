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
	if !almostEq(s.Area(), 6, 1e-12) {
		t.Fatalf("area = %v", s.Area())
	}
	// All centroids lie in the rectangle's plane and interior.
	for _, c := range s.Centroids() {
		if c.Z != 0 || c.X < 0 || c.X > 2 || c.Y < 0 || c.Y > 3 {
			t.Fatalf("centroid out of rect: %v", c)
		}
	}
}

func TestTubeSurfaceAreaConverges(t *testing.T) {
	r, z0, z1 := 0.7, -1.0, 2.0
	exact := 2 * math.Pi * r * (z1 - z0)
	coarse := TubeSurface("wall", r, z0, z1, 8, 2).Area()
	fine := TubeSurface("wall", r, z0, z1, 64, 8).Area()
	if math.Abs(fine-exact)/exact > 0.01 {
		t.Fatalf("fine tube area %v vs exact %v", fine, exact)
	}
	if math.Abs(fine-exact) >= math.Abs(coarse-exact) {
		t.Fatalf("refinement did not improve area: coarse err %v fine err %v",
			math.Abs(coarse-exact), math.Abs(fine-exact))
	}
}

func TestSphereSurfaceAreaConverges(t *testing.T) {
	r := 1.3
	exact := 4 * math.Pi * r * r
	fine := SphereSurface("dome", Vec3{1, 2, 3}, r, 48, 96).Area()
	if math.Abs(fine-exact)/exact > 0.01 {
		t.Fatalf("sphere area %v vs exact %v", fine, exact)
	}
}

func TestSurfaceBounds(t *testing.T) {
	s := TubeSurface("wall", 1, 0, 5, 16, 4)
	b := s.Bounds()
	if b.Min.Z != 0 || b.Max.Z != 5 {
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

func TestFlipNegatesNormals(t *testing.T) {
	s := PlanarRect("g", Vec3{}, Vec3{X: 1}, Vec3{Y: 1}, 2, 2)
	f := s.Flip()
	for i := range s.Triangles {
		n1 := s.Triangles[i].UnitNormal()
		n2 := f.Triangles[i].UnitNormal()
		if n1.Add(n2).Norm() > 1e-12 {
			t.Fatalf("triangle %d: %v vs %v", i, n1, n2)
		}
	}
	if s.Area() != f.Area() {
		t.Fatal("flip changed area")
	}
}
