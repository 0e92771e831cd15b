package dpd

import (
	"fmt"
	"math"

	"nektarg/internal/geometry"
)

// TriangulatedWall imposes no-slip on an arbitrary triangulated surface —
// "the boundary of a DPD domain is discretized (e.g., triangulated) into
// small enough elements where local BC velocities are set". The fluid side
// is the side the triangle normals point into. Closest-triangle queries are
// accelerated by a uniform spatial hash over triangle bounding boxes.
type TriangulatedWall struct {
	Surf *geometry.Surface
	// Vel gives the wall velocity at a surface point (nil = rigid).
	Vel func(p geometry.Vec3) geometry.Vec3

	cellSize float64
	origin   geometry.Vec3
	dims     [3]int
	cells    map[int][]int32 // cell -> triangle indices
}

// NewTriangulatedWall indexes the surface for queries; cellSize should be on
// the order of the triangle size (and at least the interaction cutoff).
func NewTriangulatedWall(s *geometry.Surface, cellSize float64) *TriangulatedWall {
	if len(s.Triangles) == 0 {
		panic("dpd: empty wall surface")
	}
	if cellSize <= 0 {
		panic(fmt.Sprintf("dpd: wall cell size %v", cellSize))
	}
	b := s.Bounds()
	// Pad one cell so near-boundary queries stay in range.
	origin := b.Min.Sub(geometry.Vec3{X: cellSize, Y: cellSize, Z: cellSize})
	size := b.Max.Sub(origin).Add(geometry.Vec3{X: cellSize, Y: cellSize, Z: cellSize})
	w := &TriangulatedWall{
		Surf:     s,
		cellSize: cellSize,
		origin:   origin,
		cells:    map[int][]int32{},
	}
	for d, v := range [3]float64{size.X, size.Y, size.Z} {
		w.dims[d] = int(v/cellSize) + 1
	}
	for ti, tri := range s.Triangles {
		tb := tri.Bounds()
		lo := w.cellCoords(tb.Min)
		hi := w.cellCoords(tb.Max)
		for cz := lo[2]; cz <= hi[2]; cz++ {
			for cy := lo[1]; cy <= hi[1]; cy++ {
				for cx := lo[0]; cx <= hi[0]; cx++ {
					id := w.cellID(cx, cy, cz)
					w.cells[id] = append(w.cells[id], int32(ti))
				}
			}
		}
	}
	return w
}

func (w *TriangulatedWall) cellCoords(p geometry.Vec3) [3]int {
	rel := p.Sub(w.origin)
	c := [3]int{
		int(rel.X / w.cellSize),
		int(rel.Y / w.cellSize),
		int(rel.Z / w.cellSize),
	}
	for d := 0; d < 3; d++ {
		if c[d] < 0 {
			c[d] = 0
		}
		if c[d] >= w.dims[d] {
			c[d] = w.dims[d] - 1
		}
	}
	return c
}

func (w *TriangulatedWall) cellID(x, y, z int) int {
	return x + w.dims[0]*(y+w.dims[1]*z)
}

// closest returns the nearest surface point, its triangle index, and the
// distance, searching outward ring by ring from the query cell.
func (w *TriangulatedWall) closest(p geometry.Vec3) (geometry.Vec3, int, float64) {
	c := w.cellCoords(p)
	bestD := math.Inf(1)
	var bestPt geometry.Vec3
	bestT := -1
	maxRing := w.dims[0] + w.dims[1] + w.dims[2]
	for ring := 0; ring <= maxRing; ring++ {
		// Once a hit exists and the next ring cannot beat it, stop.
		if bestT >= 0 && float64(ring-1)*w.cellSize > bestD {
			break
		}
		found := false
		for cz := c[2] - ring; cz <= c[2]+ring; cz++ {
			if cz < 0 || cz >= w.dims[2] {
				continue
			}
			for cy := c[1] - ring; cy <= c[1]+ring; cy++ {
				if cy < 0 || cy >= w.dims[1] {
					continue
				}
				for cx := c[0] - ring; cx <= c[0]+ring; cx++ {
					if cx < 0 || cx >= w.dims[0] {
						continue
					}
					// Only the shell of the ring.
					if ring > 0 && abs(cx-c[0]) != ring && abs(cy-c[1]) != ring && abs(cz-c[2]) != ring {
						continue
					}
					tris, ok := w.cells[w.cellID(cx, cy, cz)]
					if !ok {
						continue
					}
					found = true
					for _, ti := range tris {
						q := closestPointOnTriangle(w.Surf.Triangles[ti], p)
						if d := p.Dist(q); d < bestD {
							bestD, bestPt, bestT = d, q, int(ti)
						}
					}
				}
			}
		}
		_ = found
	}
	return bestPt, bestT, bestD
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// closestPointOnTriangle returns the point of tri nearest to p (standard
// barycentric region walk, Ericson's algorithm).
func closestPointOnTriangle(tri geometry.Triangle, p geometry.Vec3) geometry.Vec3 {
	a, b, c := tri.A, tri.B, tri.C
	ab := b.Sub(a)
	ac := c.Sub(a)
	ap := p.Sub(a)
	d1 := ab.Dot(ap)
	d2 := ac.Dot(ap)
	if d1 <= 0 && d2 <= 0 {
		return a
	}
	bp := p.Sub(b)
	d3 := ab.Dot(bp)
	d4 := ac.Dot(bp)
	if d3 >= 0 && d4 <= d3 {
		return b
	}
	vc := float64(d1*d4) - float64(d3*d2)
	if vc <= 0 && d1 >= 0 && d3 <= 0 {
		v := d1 / (d1 - d3)
		return a.Add(ab.Scale(v))
	}
	cp := p.Sub(c)
	d5 := ab.Dot(cp)
	d6 := ac.Dot(cp)
	if d6 >= 0 && d5 <= d6 {
		return c
	}
	vb := float64(d5*d2) - float64(d1*d6)
	if vb <= 0 && d2 >= 0 && d6 <= 0 {
		w := d2 / (d2 - d6)
		return a.Add(ac.Scale(w))
	}
	va := float64(d3*d6) - float64(d5*d4)
	if va <= 0 && (d4-d3) >= 0 && (d5-d6) >= 0 {
		w := (d4 - d3) / ((d4 - d3) + (d5 - d6))
		return b.Add(c.Sub(b).Scale(w))
	}
	denom := 1 / (va + vb + vc)
	v := vb * denom
	w2 := vc * denom
	return a.Add(ab.Scale(v)).Add(ac.Scale(w2))
}

// Distance implements Wall: signed distance, positive on the fluid side (the
// side the triangle normals face).
func (w *TriangulatedWall) Distance(p geometry.Vec3) float64 {
	q, ti, d := w.closest(p)
	if ti < 0 {
		return math.Inf(1)
	}
	n := w.Surf.Triangles[ti].Normal()
	if p.Sub(q).Dot(n) < 0 {
		return -d
	}
	return d
}

// Normal implements Wall: direction from the closest surface point toward
// the fluid side.
func (w *TriangulatedWall) Normal(p geometry.Vec3) geometry.Vec3 {
	q, ti, d := w.closest(p)
	if ti < 0 {
		return geometry.Vec3{Z: 1}
	}
	n := w.Surf.Triangles[ti].UnitNormal()
	if d < 1e-12 {
		return n
	}
	dir := p.Sub(q).Scale(1 / d)
	if dir.Dot(n) < 0 {
		return dir.Scale(-1)
	}
	return dir
}

// Velocity implements Wall.
func (w *TriangulatedWall) Velocity(p geometry.Vec3) geometry.Vec3 {
	if w.Vel == nil {
		return geometry.Vec3{}
	}
	q, _, _ := w.closest(p)
	return w.Vel(q)
}
