package dpd

import (
	"math"

	"nektarg/internal/geometry"
)

// The linked-cell pair kernel, retained as the reference oracle of
// TestPairKernelMatchesReference: a push-front int32 linked list per cell, a
// walk of the 14 half-shell offsets per home cell, the per-pair minimum image,
// two divisions and three forces per pair, one N-sized buffer per tile merged
// in tile order. Only pairXi has followed the kernel, to the one-round hash:
// forces at a fixed configuration are comparable, to round-off, because both
// draw the same ξ. It double-counts pairs along periodic axes of fewer than
// three cells (the +1 and -1 neighbours are one cell), so it is a reference
// only on grids of three or more cells per periodic axis.

// halfShell lists the cell offsets covering each neighbor pair once: the
// home cell itself plus the 13 offsets whose first non-zero component,
// reading z, y, x, is positive.
var halfShell = [14][3]int{
	{0, 0, 0},
	{1, 0, 0},
	{-1, 1, 0}, {0, 1, 0}, {1, 1, 0},
	{-1, -1, 1}, {0, -1, 1}, {1, -1, 1},
	{-1, 0, 1}, {0, 0, 1}, {1, 0, 1},
	{-1, 1, 1}, {0, 1, 1}, {1, 1, 1},
}

type refCells struct {
	s     *System
	ncell [3]int
	clen  [3]float64
	heads []int32
	next  []int32
}

func newRefCells(s *System) *refCells {
	c := &refCells{s: s}
	sz := s.Size()
	dims := [3]float64{sz.X, sz.Y, sz.Z}
	for d := 0; d < 3; d++ {
		c.ncell[d] = int(dims[d] / s.Rc)
		if c.ncell[d] < 1 {
			c.ncell[d] = 1
		}
		c.clen[d] = dims[d] / float64(c.ncell[d])
	}
	c.heads = make([]int32, c.ncell[0]*c.ncell[1]*c.ncell[2])
	for i := range c.heads {
		c.heads[i] = -1
	}
	c.next = make([]int32, len(s.Particles))
	for i := range s.Particles {
		k := c.cellOf(s.Particles[i].Pos)
		c.next[i] = c.heads[k]
		c.heads[k] = int32(i)
	}
	return c
}

func (c *refCells) cellOf(pos geometry.Vec3) int {
	rel := pos.Sub(c.s.Lo)
	coords := [3]float64{rel.X, rel.Y, rel.Z}
	var k [3]int
	for d := 0; d < 3; d++ {
		k[d] = int(coords[d] / c.clen[d])
		if k[d] < 0 {
			k[d] = 0
		}
		if k[d] >= c.ncell[d] {
			k[d] = c.ncell[d] - 1
		}
	}
	return k[0] + c.ncell[0]*(k[1]+c.ncell[1]*k[2])
}

func (c *refCells) wrapCell(k *int, d int) bool {
	if *k < 0 {
		if !c.s.Periodic[d] {
			return false
		}
		*k += c.ncell[d]
	} else if *k >= c.ncell[d] {
		if !c.s.Periodic[d] {
			return false
		}
		*k -= c.ncell[d]
	}
	return true
}

// refPairForces returns the pair forces of the system's current state as the
// old kernel computed them, with the given tile count.
func refPairForces(s *System, tiles int) []geometry.Vec3 {
	c := newRefCells(s)
	n := len(s.Particles)
	nt := tiles
	if nt > c.ncell[2] {
		nt = c.ncell[2]
	}
	if nt < 1 {
		nt = 1
	}
	per := (c.ncell[2] + nt - 1) / nt
	out := make([]geometry.Vec3, n)
	for z := 0; z < c.ncell[2]; z += per {
		z1 := z + per
		if z1 > c.ncell[2] {
			z1 = c.ncell[2]
		}
		buf := make([]geometry.Vec3, n)
		c.forcesInStrip(z, z1, buf)
		for i := range buf {
			out[i] = out[i].Add(buf[i])
		}
	}
	return out
}

func (c *refCells) forcesInStrip(z0, z1 int, buf []geometry.Vec3) {
	rc2 := c.s.Rc * c.s.Rc
	for cz := z0; cz < z1; cz++ {
		for cy := 0; cy < c.ncell[1]; cy++ {
			for cx := 0; cx < c.ncell[0]; cx++ {
				home := cx + c.ncell[0]*(cy+c.ncell[1]*cz)
				for _, off := range halfShell {
					nx, ny, nz := cx+off[0], cy+off[1], cz+off[2]
					if !c.wrapCell(&nx, 0) || !c.wrapCell(&ny, 1) || !c.wrapCell(&nz, 2) {
						continue
					}
					nbr := nx + c.ncell[0]*(ny+c.ncell[1]*nz)
					if nbr == home && off != [3]int{0, 0, 0} {
						continue // degenerate wrap in a 1-cell dimension
					}
					c.pairCells(home, nbr, off == [3]int{0, 0, 0}, rc2, buf)
				}
			}
		}
	}
}

func (c *refCells) pairCells(ca, cb int, same bool, rc2 float64, buf []geometry.Vec3) {
	for i := c.heads[ca]; i >= 0; i = c.next[i] {
		jStart := c.heads[cb]
		if same {
			jStart = c.next[i]
		}
		for j := jStart; j >= 0; j = c.next[j] {
			c.pairForce(int(i), int(j), rc2, buf)
		}
	}
}

func (c *refCells) pairForce(i, j int, rc2 float64, buf []geometry.Vec3) {
	s := c.s
	pi := &s.Particles[i]
	pj := &s.Particles[j]
	if pi.Frozen && pj.Frozen {
		return
	}
	d := s.minimumImage(pi.Pos, pj.Pos)
	r2 := d.Norm2()
	if r2 >= rc2 || r2 == 0 {
		return
	}
	r := math.Sqrt(r2)
	rhat := d.Scale(1 / r)
	w := 1 - r/s.Rc

	a := s.A[pi.Species][pj.Species]
	fc := a * w

	vij := pi.Vel.Sub(pj.Vel)
	wd := w * w
	fd := -s.Gamma * wd * rhat.Dot(vij)

	sigma := math.Sqrt(2 * s.Gamma * s.KBT)
	xi := pairXi(s.Seed, uint64(s.Step), pi.ID, pj.ID)
	fr := sigma * w * xi / math.Sqrt(s.Dt)

	f := rhat.Scale(fc + fd + fr)
	buf[i] = buf[i].Add(f)
	buf[j] = buf[j].Sub(f)
}

// pairXi is the random number of one pair with the whole hash spelled out per
// pair; pairXiKeyed must equal it with the step part hoisted.
func pairXi(seed uint64, step uint64, id1, id2 int64) float64 {
	if id1 > id2 {
		id1, id2 = id2, id1
	}
	h := splitmix64(seed ^ splitmix64(step) ^ (uint64(id1)<<32 | uint64(uint32(id2))))
	const sqrt3 = 1.7320508075688772
	return (2*float64(h>>11)/float64(1<<53) - 1) * sqrt3
}

// allPairsForces is the O(N²) oracle: every pair once, per-pair minimum
// image, no cells and no tiles.
func allPairsForces(s *System) []geometry.Vec3 {
	out := make([]geometry.Vec3, len(s.Particles))
	c := &refCells{s: s}
	rc2 := s.Rc * s.Rc
	for i := range s.Particles {
		for j := i + 1; j < len(s.Particles); j++ {
			c.pairForce(i, j, rc2, out)
		}
	}
	return out
}
