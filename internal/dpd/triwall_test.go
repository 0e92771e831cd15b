package dpd

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"nektarg/internal/geometry"
)

func TestClosestPointOnTriangleRegions(t *testing.T) {
	tri := geometry.Triangle{
		A: geometry.Vec3{},
		B: geometry.Vec3{X: 1},
		C: geometry.Vec3{Y: 1},
	}
	cases := []struct {
		p, want geometry.Vec3
	}{
		{geometry.Vec3{X: 0.25, Y: 0.25, Z: 1}, geometry.Vec3{X: 0.25, Y: 0.25}}, // face
		{geometry.Vec3{X: -1, Y: -1, Z: 0}, geometry.Vec3{}},                     // vertex A
		{geometry.Vec3{X: 2, Y: -0.5, Z: 0}, geometry.Vec3{X: 1}},                // vertex B
		{geometry.Vec3{X: -0.5, Y: 2, Z: 0}, geometry.Vec3{Y: 1}},                // vertex C
		{geometry.Vec3{X: 0.5, Y: -1, Z: 0}, geometry.Vec3{X: 0.5}},              // edge AB
		{geometry.Vec3{X: -1, Y: 0.5, Z: 0}, geometry.Vec3{Y: 0.5}},              // edge AC
		{geometry.Vec3{X: 1, Y: 1, Z: 0}, geometry.Vec3{X: 0.5, Y: 0.5}},         // edge BC
	}
	for i, tc := range cases {
		got := closestPointOnTriangle(tri, tc.p)
		if got.Sub(tc.want).Norm() > 1e-12 {
			t.Fatalf("case %d: got %v want %v", i, got, tc.want)
		}
	}
}

func TestClosestPointIsActuallyClosest(t *testing.T) {
	// Property: the returned point is no farther than any barycentric
	// sample of the triangle.
	tri := geometry.Triangle{
		A: geometry.Vec3{X: 0.3, Y: -0.2, Z: 0.1},
		B: geometry.Vec3{X: 1.1, Y: 0.4, Z: -0.3},
		C: geometry.Vec3{X: -0.2, Y: 0.9, Z: 0.5},
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := geometry.Vec3{X: rng.NormFloat64() * 2, Y: rng.NormFloat64() * 2, Z: rng.NormFloat64() * 2}
		q := closestPointOnTriangle(tri, p)
		dq := p.Dist(q)
		for i := 0; i < 40; i++ {
			u := rng.Float64()
			v := rng.Float64() * (1 - u)
			sample := tri.A.Scale(1 - u - v).Add(tri.B.Scale(u)).Add(tri.C.Scale(v))
			if p.Dist(sample) < dq-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTriangulatedWallDistanceSign(t *testing.T) {
	// A planar rect at z=0 with normal +z: fluid above.
	s := geometry.PlanarRect("floor", geometry.Vec3{X: -2, Y: -2},
		geometry.Vec3{X: 4}, geometry.Vec3{Y: 4}, 4, 4)
	w := NewTriangulatedWall(s, 1.0)
	if d := w.Distance(geometry.Vec3{Z: 0.5}); math.Abs(d-0.5) > 1e-12 {
		t.Fatalf("above: d = %v", d)
	}
	if d := w.Distance(geometry.Vec3{Z: -0.3}); math.Abs(d+0.3) > 1e-12 {
		t.Fatalf("below: d = %v", d)
	}
	n := w.Normal(geometry.Vec3{X: 0.3, Y: 0.1, Z: 0.4})
	if n.Sub(geometry.Vec3{Z: 1}).Norm() > 1e-9 {
		t.Fatalf("normal = %v", n)
	}
	// Behind the wall the normal still points toward the fluid.
	nb := w.Normal(geometry.Vec3{X: 0.3, Y: 0.1, Z: -0.4})
	if nb.Sub(geometry.Vec3{Z: 1}).Norm() > 1e-9 {
		t.Fatalf("behind-wall normal = %v", nb)
	}
}

// inwardTube triangulates the open cylinder of radius r along z from z0 to
// z1, nTheta by nz quads, wound so that every normal points at the axis.
func inwardTube(r, z0, z1 float64, nTheta, nz int) *geometry.Surface {
	at := func(i, k int) geometry.Vec3 {
		th := 2 * math.Pi * float64(i) / float64(nTheta)
		return geometry.Vec3{X: r * math.Cos(th), Y: r * math.Sin(th), Z: z0 + (z1-z0)*float64(k)/float64(nz)}
	}
	s := &geometry.Surface{Name: "pipe"}
	for k := 0; k < nz; k++ {
		for i := 0; i < nTheta; i++ {
			s.Triangles = append(s.Triangles,
				geometry.Triangle{A: at(i, k), B: at(i+1, k+1), C: at(i+1, k)},
				geometry.Triangle{A: at(i, k), B: at(i, k+1), C: at(i+1, k+1)})
		}
	}
	return s
}

func TestTriangulatedTubeConfinesParticles(t *testing.T) {
	// A triangulated pipe (normals inward) must confine a DPD fluid just
	// like the analytic CylinderWall.
	r := 2.0
	w := NewTriangulatedWall(inwardTube(r, -0.5, 5.5, 24, 6), 1.0)
	// Sanity: interior positive, exterior negative.
	if d := w.Distance(geometry.Vec3{Z: 2}); d < 1.9 || d > 2.1 {
		t.Fatalf("axis distance = %v", d)
	}
	if d := w.Distance(geometry.Vec3{X: 2.5, Z: 2}); d > -0.3 {
		t.Fatalf("outside distance = %v", d)
	}

	p := DefaultParams(1)
	p.Dt = 0.005
	sys := must(NewSystem(p, geometry.Vec3{X: -2.5, Y: -2.5, Z: 0}, geometry.Vec3{X: 2.5, Y: 2.5, Z: 5}, [3]bool{false, false, true}))(t)
	sys.Walls = []Wall{w}
	rng := rand.New(rand.NewSource(4))
	for len(sys.Particles) < 300 {
		pos := geometry.Vec3{
			X: (rng.Float64() - 0.5) * 2 * r,
			Y: (rng.Float64() - 0.5) * 2 * r,
			Z: rng.Float64() * 5,
		}
		if math.Hypot(pos.X, pos.Y) < 0.9*r {
			sys.AddParticle(pos, geometry.Vec3{}, 0, false)
		}
	}
	sys.Run(200)
	for i := range sys.Particles {
		pp := sys.Particles[i].Pos
		// The faceted tube's inscribed radius is slightly below r.
		if math.Hypot(pp.X, pp.Y) > r+0.05 {
			t.Fatalf("particle escaped the triangulated pipe: r = %v", math.Hypot(pp.X, pp.Y))
		}
	}
}

func TestTriangulatedWallMovingVelocity(t *testing.T) {
	s := geometry.PlanarRect("belt", geometry.Vec3{X: -1, Y: -1},
		geometry.Vec3{X: 2}, geometry.Vec3{Y: 2}, 2, 2)
	w := NewTriangulatedWall(s, 1.0)
	w.Vel = func(p geometry.Vec3) geometry.Vec3 { return geometry.Vec3{X: 2 * p.X} }
	v := w.Velocity(geometry.Vec3{X: 0.5, Y: 0, Z: 0.2})
	if math.Abs(v.X-1.0) > 1e-9 {
		t.Fatalf("wall velocity = %v", v)
	}
}

func TestNewTriangulatedWallPanics(t *testing.T) {
	mustPanic := func(fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		fn()
	}
	mustPanic(func() { NewTriangulatedWall(&geometry.Surface{}, 1) })
	s := geometry.PlanarRect("x", geometry.Vec3{}, geometry.Vec3{X: 1}, geometry.Vec3{Y: 1}, 1, 1)
	mustPanic(func() { NewTriangulatedWall(s, 0) })
}

func TestSDFWallMatchesTriangulated(t *testing.T) {
	s := geometry.PlanarRect("floor", geometry.Vec3{X: -2, Y: -2},
		geometry.Vec3{X: 4}, geometry.Vec3{Y: 4}, 4, 4)
	tw := NewTriangulatedWall(s, 1.0)
	sdf := NewSDFWall(s, geometry.Vec3{X: -1.5, Y: -1.5, Z: -1}, geometry.Vec3{X: 1.5, Y: 1.5, Z: 1.5}, 0.1)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		p := geometry.Vec3{
			X: (rng.Float64() - 0.5) * 2,
			Y: (rng.Float64() - 0.5) * 2,
			Z: (rng.Float64() - 0.5) * 2,
		}
		dExact := tw.Distance(p)
		dSDF := sdf.Distance(p)
		if math.Abs(dExact-dSDF) > 0.02 {
			t.Fatalf("at %v: exact %v, SDF %v", p, dExact, dSDF)
		}
	}
	// Normal of the flat floor: +z everywhere above.
	n := sdf.Normal(geometry.Vec3{X: 0.2, Y: 0.1, Z: 0.5})
	if n.Sub(geometry.Vec3{Z: 1}).Norm() > 0.05 {
		t.Fatalf("SDF normal = %v", n)
	}
}

// TestSDFWallParallelFillMatchesSerial holds NewSDFWall's concurrent fill
// to a serial one: every node of the grid == the triangulated wall's
// distance there, with fewer cores than planes and with more.
func TestSDFWallParallelFillMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	surf := inwardTube(2, -1, 6, 24, 7)
	lo, hi, h := geometry.Vec3{X: -3, Y: -3, Z: -0.5}, geometry.Vec3{X: 3, Y: 3, Z: 5.5}, 0.3
	tw := NewTriangulatedWall(surf, 4*h)
	for _, procs := range []int{3, 32} {
		runtime.GOMAXPROCS(procs)
		sdf := NewSDFWall(surf, lo, hi, h)
		for k := 0; k < sdf.n[2]; k++ {
			for j := 0; j < sdf.n[1]; j++ {
				for i := 0; i < sdf.n[0]; i++ {
					p := geometry.Vec3{X: lo.X + float64(i)*h, Y: lo.Y + float64(j)*h, Z: lo.Z + float64(k)*h}
					if got, want := sdf.d[sdf.idx(i, j, k)], tw.Distance(p); got != want {
						t.Fatalf("GOMAXPROCS=%d node (%d, %d, %d): %v, serial %v", procs, i, j, k, got, want)
					}
				}
			}
		}
	}
}

func TestSDFWallConfinesParticles(t *testing.T) {
	r := 2.0
	sdf := NewSDFWall(inwardTube(r, -1, 6, 24, 7),
		geometry.Vec3{X: -3, Y: -3, Z: -0.5},
		geometry.Vec3{X: 3, Y: 3, Z: 5.5}, 0.15)
	p := DefaultParams(1)
	p.Dt = 0.005
	sys := must(NewSystem(p, geometry.Vec3{X: -2.5, Y: -2.5, Z: 0}, geometry.Vec3{X: 2.5, Y: 2.5, Z: 5}, [3]bool{false, false, true}))(t)
	sys.Walls = []Wall{sdf}
	rng := rand.New(rand.NewSource(4))
	for len(sys.Particles) < 300 {
		pos := geometry.Vec3{
			X: (rng.Float64() - 0.5) * 2 * r,
			Y: (rng.Float64() - 0.5) * 2 * r,
			Z: rng.Float64() * 5,
		}
		if math.Hypot(pos.X, pos.Y) < 0.9*r {
			sys.AddParticle(pos, geometry.Vec3{}, 0, false)
		}
	}
	sys.Run(200)
	for i := range sys.Particles {
		pp := sys.Particles[i].Pos
		if math.Hypot(pp.X, pp.Y) > r+0.1 {
			t.Fatalf("particle escaped the SDF pipe: r = %v", math.Hypot(pp.X, pp.Y))
		}
	}
}

func TestSDFWallPanics(t *testing.T) {
	s := geometry.PlanarRect("x", geometry.Vec3{}, geometry.Vec3{X: 1}, geometry.Vec3{Y: 1}, 1, 1)
	mustPanic := func(fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		fn()
	}
	mustPanic(func() { NewSDFWall(s, geometry.Vec3{}, geometry.Vec3{X: 1, Y: 1, Z: 1}, 0) })
	mustPanic(func() { NewSDFWall(s, geometry.Vec3{X: 1}, geometry.Vec3{}, 0.1) })
}
