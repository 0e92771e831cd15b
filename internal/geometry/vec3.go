// Package geometry provides the small vector/surface toolkit shared by the
// mesh generators, the spectral-element solver and the DPD engine: 3-vectors,
// axis-aligned boxes, triangles and triangulated interface surfaces.
package geometry

import (
	"fmt"
	"math"
)

// Vec3 is a point or vector in R^3.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s*v.
func (v Vec3) Scale(s float64) Vec3 {
	return Vec3{float64(s * v.X), float64(s * v.Y), float64(s * v.Z)}
}

// Dot returns the inner product v . w.
func (v Vec3) Dot(w Vec3) float64 { return float64(v.X*w.X) + float64(v.Y*w.Y) + float64(v.Z*w.Z) }

// Cross returns the vector product v x w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		float64(v.Y*w.Z) - float64(v.Z*w.Y),
		float64(v.Z*w.X) - float64(v.X*w.Z),
		float64(v.X*w.Y) - float64(v.Y*w.X),
	}
}

// Norm returns |v|.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Norm2 returns |v|^2.
func (v Vec3) Norm2() float64 { return v.Dot(v) }

// Dist returns |v - w|.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Norm() }

// Normalized returns v/|v|. It panics on the zero vector, which always
// indicates a geometry construction bug upstream.
func (v Vec3) Normalized() Vec3 {
	n := v.Norm()
	if n == 0 {
		panic("geometry: normalizing zero vector")
	}
	return v.Scale(1 / n)
}

// Mul returns the component-wise product.
func (v Vec3) Mul(w Vec3) Vec3 {
	return Vec3{float64(v.X * w.X), float64(v.Y * w.Y), float64(v.Z * w.Z)}
}

func (v Vec3) String() string {
	return fmt.Sprintf("(%.6g, %.6g, %.6g)", v.X, v.Y, v.Z)
}

// AABB is an axis-aligned bounding box.
type AABB struct {
	Min, Max Vec3
}

// NewAABB returns the smallest box containing all pts. An empty input yields
// an inverted box (Min = +Inf, Max = -Inf) that any Extend replaces.
func NewAABB(pts ...Vec3) AABB {
	b := AABB{
		Min: Vec3{math.Inf(1), math.Inf(1), math.Inf(1)},
		Max: Vec3{math.Inf(-1), math.Inf(-1), math.Inf(-1)},
	}
	for _, p := range pts {
		b = b.Extend(p)
	}
	return b
}

// Extend returns the box grown to contain p.
func (b AABB) Extend(p Vec3) AABB {
	return AABB{
		Min: Vec3{math.Min(b.Min.X, p.X), math.Min(b.Min.Y, p.Y), math.Min(b.Min.Z, p.Z)},
		Max: Vec3{math.Max(b.Max.X, p.X), math.Max(b.Max.Y, p.Y), math.Max(b.Max.Z, p.Z)},
	}
}

// Union returns the smallest box containing both boxes.
func (b AABB) Union(o AABB) AABB {
	return b.Extend(o.Min).Extend(o.Max)
}
