package dpd

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"nektarg/internal/geometry"
)

// SDFWall is a triangulated wall baked into a signed-distance grid: the
// exact closest-triangle queries run once per grid sample at construction,
// and the hot per-particle-per-step path becomes a trilinear interpolation
// with finite-difference normals. This is how production particle codes make
// complex-geometry boundaries affordable (the paper's Feff "can be
// calculated during pre-processing").
type SDFWall struct {
	Lo, Hi  geometry.Vec3
	H       float64 // grid spacing
	n       [3]int  // samples per dimension
	d       []float64
	WallVel geometry.Vec3
}

// NewSDFWall samples the surface's signed distance over [lo, hi] at spacing
// h. Points outside the sampled box clamp to the boundary values, so the box
// should cover the whole fluid domain plus one cutoff.
func NewSDFWall(s *geometry.Surface, lo, hi geometry.Vec3, h float64) *SDFWall {
	if h <= 0 {
		panic(fmt.Sprintf("dpd: SDF spacing %v", h))
	}
	size := hi.Sub(lo)
	if size.X <= 0 || size.Y <= 0 || size.Z <= 0 {
		panic("dpd: empty SDF box")
	}
	tw := NewTriangulatedWall(s, math.Max(h, 4*h))
	w := &SDFWall{Lo: lo, Hi: hi, H: h}
	for d, v := range [3]float64{size.X, size.Y, size.Z} {
		w.n[d] = int(math.Ceil(v/h)) + 1
	}
	w.d = make([]float64, w.n[0]*w.n[1]*w.n[2])
	// The samples are independent and each z-plane is a disjoint range of
	// w.d: the planes are dealt out round-robin to one goroutine per core.
	nw := min(runtime.GOMAXPROCS(0), w.n[2])
	var wg sync.WaitGroup
	for t := 0; t < nw; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := t; k < w.n[2]; k += nw {
				w.fillPlane(tw, k)
			}
		}()
	}
	wg.Wait()
	return w
}

// fillPlane samples the signed distance at the nodes of z-plane k.
func (w *SDFWall) fillPlane(tw *TriangulatedWall, k int) {
	for j := 0; j < w.n[1]; j++ {
		for i := 0; i < w.n[0]; i++ {
			p := geometry.Vec3{
				X: w.Lo.X + float64(float64(i)*w.H),
				Y: w.Lo.Y + float64(float64(j)*w.H),
				Z: w.Lo.Z + float64(float64(k)*w.H),
			}
			w.d[w.idx(i, j, k)] = tw.Distance(p)
		}
	}
}

func (w *SDFWall) idx(i, j, k int) int { return i + w.n[0]*(j+w.n[1]*k) }

// sample interpolates the SDF trilinearly, clamping to the box.
func (w *SDFWall) sample(p geometry.Vec3) float64 {
	fx := (p.X - w.Lo.X) / w.H
	fy := (p.Y - w.Lo.Y) / w.H
	fz := (p.Z - w.Lo.Z) / w.H
	clamp := func(f float64, n int) (int, float64) {
		if f < 0 {
			return 0, 0
		}
		i := int(f)
		if i >= n-1 {
			return n - 2, 1
		}
		return i, f - float64(i)
	}
	i, tx := clamp(fx, w.n[0])
	j, ty := clamp(fy, w.n[1])
	k, tz := clamp(fz, w.n[2])
	var s float64
	for dk := 0; dk <= 1; dk++ {
		wz := tz
		if dk == 0 {
			wz = 1 - tz
		}
		for dj := 0; dj <= 1; dj++ {
			wy := ty
			if dj == 0 {
				wy = 1 - ty
			}
			for di := 0; di <= 1; di++ {
				wx := tx
				if di == 0 {
					wx = 1 - tx
				}
				s += float64(wx * wy * wz * w.d[w.idx(i+di, j+dj, k+dk)])
			}
		}
	}
	return s
}

// Distance implements Wall.
func (w *SDFWall) Distance(p geometry.Vec3) float64 { return w.sample(p) }

// Normal implements Wall: the normalized SDF gradient (central differences).
func (w *SDFWall) Normal(p geometry.Vec3) geometry.Vec3 {
	e := float64(w.H / 2)
	g := geometry.Vec3{
		X: w.sample(geometry.Vec3{X: p.X + e, Y: p.Y, Z: p.Z}) - w.sample(geometry.Vec3{X: p.X - e, Y: p.Y, Z: p.Z}),
		Y: w.sample(geometry.Vec3{X: p.X, Y: p.Y + e, Z: p.Z}) - w.sample(geometry.Vec3{X: p.X, Y: p.Y - e, Z: p.Z}),
		Z: w.sample(geometry.Vec3{X: p.X, Y: p.Y, Z: p.Z + e}) - w.sample(geometry.Vec3{X: p.X, Y: p.Y, Z: p.Z - e}),
	}
	n := g.Norm()
	if n < 1e-12 {
		return geometry.Vec3{Z: 1}
	}
	return g.Scale(1 / n)
}

// Velocity implements Wall.
func (w *SDFWall) Velocity(geometry.Vec3) geometry.Vec3 { return w.WallVel }
