package geometry

import (
	"fmt"
	"math"
)

// Triangle is a surface element of an interface discretization ΓI. In the
// paper the boundaries of the atomistic domain ΩA are triangulated and local
// boundary velocities are set at each element; the element midpoints are what
// the coupling protocol ships between L4 roots.
type Triangle struct {
	A, B, C Vec3
}

// Centroid returns the triangle midpoint used as the coupling sample point.
func (t Triangle) Centroid() Vec3 {
	return t.A.Add(t.B).Add(t.C).Scale(1.0 / 3.0)
}

// Normal returns the (non-unit) normal (B-A) x (C-A).
func (t Triangle) Normal() Vec3 {
	return t.B.Sub(t.A).Cross(t.C.Sub(t.A))
}

// UnitNormal returns the unit normal. Degenerate triangles panic.
func (t Triangle) UnitNormal() Vec3 { return t.Normal().Normalized() }

// Area returns the triangle area.
func (t Triangle) Area() float64 { return 0.5 * t.Normal().Norm() }

// Bounds returns the triangle's bounding box.
func (t Triangle) Bounds() AABB { return NewAABB(t.A, t.B, t.C) }

// Surface is a triangulated interface surface: a ΓI in the paper's notation.
// Name distinguishes the five planar coupling faces and the wall face of the
// aneurysm insert.
type Surface struct {
	Name      string
	Triangles []Triangle
}

// Centroids returns the element midpoints, the payload sent from the L3 root
// of ΩA to the continuum L3 roots during the coupling handshake.
func (s *Surface) Centroids() []Vec3 {
	out := make([]Vec3, len(s.Triangles))
	for i, t := range s.Triangles {
		out[i] = t.Centroid()
	}
	return out
}

// Bounds returns the bounding box of the whole surface.
func (s *Surface) Bounds() AABB {
	b := NewAABB()
	for _, t := range s.Triangles {
		b = b.Union(t.Bounds())
	}
	return b
}

// PlanarRect builds a triangulated nu x nv rectangle spanning origin,
// origin+u and origin+v, split into 2*nu*nv triangles. It is used for the
// planar coupling faces ΓI1..ΓI5 of the atomistic insert.
func PlanarRect(name string, origin, u, v Vec3, nu, nv int) *Surface {
	if nu < 1 || nv < 1 {
		panic(fmt.Sprintf("geometry: PlanarRect needs nu,nv >= 1, got %d,%d", nu, nv))
	}
	s := &Surface{Name: name}
	du := u.Scale(1 / float64(nu))
	dv := v.Scale(1 / float64(nv))
	for i := 0; i < nu; i++ {
		for j := 0; j < nv; j++ {
			p00 := origin.Add(du.Scale(float64(i))).Add(dv.Scale(float64(j)))
			p10 := p00.Add(du)
			p01 := p00.Add(dv)
			p11 := p10.Add(dv)
			s.Triangles = append(s.Triangles,
				Triangle{p00, p10, p11},
				Triangle{p00, p11, p01},
			)
		}
	}
	return s
}

// SphereSurface builds a latitude/longitude triangulation of a sphere. It
// seeds the saccular-aneurysm dome wall and the RBC reference shape.
func SphereSurface(name string, center Vec3, radius float64, nLat, nLon int) *Surface {
	if nLat < 2 || nLon < 3 {
		panic(fmt.Sprintf("geometry: SphereSurface needs nLat>=2, nLon>=3, got %d,%d", nLat, nLon))
	}
	s := &Surface{Name: name}
	at := func(i, j int) Vec3 {
		phi := math.Pi * float64(i) / float64(nLat)    // 0..pi
		th := 2 * math.Pi * float64(j) / float64(nLon) // 0..2pi
		return Vec3{
			center.X + float64(radius*math.Sin(phi)*math.Cos(th)),
			center.Y + float64(radius*math.Sin(phi)*math.Sin(th)),
			center.Z + float64(radius*math.Cos(phi)),
		}
	}
	for i := 0; i < nLat; i++ {
		for j := 0; j < nLon; j++ {
			p00 := at(i, j)
			p10 := at(i+1, j)
			p01 := at(i, j+1)
			p11 := at(i+1, j+1)
			if i > 0 { // skip degenerate cap triangles at the north pole
				s.Triangles = append(s.Triangles, Triangle{p00, p10, p01})
			}
			if i < nLat-1 {
				s.Triangles = append(s.Triangles, Triangle{p10, p11, p01})
			}
		}
	}
	return s
}
