package dpd

import (
	"math"

	"nektarg/internal/geometry"
)

// grow returns buf resized to n, reallocating (with the given capacity) only
// when it does not fit. Contents are not preserved.
func grow[T any](buf []T, n, capacity int) []T {
	if cap(buf) < n {
		return make([]T, n, max(n, capacity))
	}
	return buf[:n]
}

// buildCells counting-sorts the particles into cell-ordered slots and gathers
// the position mirror.
func (s *System) buildCells() {
	sz := s.Size()
	s.boxLen = [3]float64{sz.X, sz.Y, sz.Z}
	for d := 0; d < 3; d++ {
		s.ncell[d] = max(int(s.boxLen[d]/s.Rc), 1)
		// With fewer than three cells the +1 neighbour of a cell is also its
		// -1 neighbour, or the cell itself: such an axis is one cell, paired
		// with itself under the per-pair minimum image (foldShort).
		if s.short[d] = s.Periodic[d] && s.ncell[d] < 3; s.short[d] {
			s.ncell[d] = 1
		}
		s.cellLen[d] = s.boxLen[d] / float64(s.ncell[d])
	}

	n, pcap := len(s.Particles), cap(s.Particles)
	ntot := s.ncell[0] * s.ncell[1] * s.ncell[2]
	s.cstart = grow(s.cstart, ntot+1, 0)
	s.sidx = grow(s.sidx, n, pcap)
	s.pcell = grow(s.pcell, n, pcap)
	s.px = grow(s.px, n, pcap)
	s.py = grow(s.py, n, pcap)
	s.pz = grow(s.pz, n, pcap)

	clear(s.cstart)
	for i := range s.Particles {
		c := int32(s.cellOf(s.Particles[i].Pos))
		s.pcell[i] = c
		s.cstart[c]++
	}
	// cstart[c] becomes the END of cell c; filling each cell from its end
	// downwards in ascending particle order leaves cstart[c] at the cell's
	// start and the cell's slots in descending particle index.
	var end int32
	for c := 0; c < ntot; c++ {
		end += s.cstart[c]
		s.cstart[c] = end
	}
	s.cstart[ntot] = end
	for i := range s.Particles {
		c := s.pcell[i]
		s.cstart[c]--
		k := s.cstart[c]
		s.sidx[k] = int32(i)
		pos := &s.Particles[i].Pos
		s.px[k], s.py[k], s.pz[k] = pos.X, pos.Y, pos.Z
	}
}

func (s *System) cellOf(pos geometry.Vec3) int {
	rel := pos.Sub(s.Lo)
	coords := [3]float64{rel.X, rel.Y, rel.Z}
	var c [3]int
	for d := 0; d < 3; d++ {
		c[d] = int(coords[d] / s.cellLen[d])
		if c[d] < 0 {
			c[d] = 0
		}
		if c[d] >= s.ncell[d] {
			c[d] = s.ncell[d] - 1
		}
	}
	return c[0] + s.ncell[0]*(c[1]+s.ncell[1]*c[2])
}

// rowShell is the half-shell of cell offsets — the home cell plus the 13
// neighbours whose first non-zero offset, reading z, y, x, is positive, every
// neighbour pair once — taken a row of cells along x at a time: (dy, dz) of
// the home row, whose cells pair with themselves and their +x neighbour, and
// of the four rows whose cells pair with all three x-neighbours of a home.
var rowShell = [5][2]int{{0, 0}, {1, 0}, {-1, 1}, {0, 1}, {1, 1}}

// gatherRow is one tile's pair-sweep scratch (arena contract: reused every
// step, never serialized). It holds what the cells of one home row pair
// with, copied from the position mirror with the periodic image shift folded
// in, laid out so that the candidates of a home particle are two contiguous
// ranges: the home row (plus the image of cell 0 behind a periodic row), and
// the neighbour rows interleaved by x-column. Particle a of home cell c pairs
// with
//
//	(a, own[c+2])  and  [col[c], col[c+3])
//
// where own[c] starts home cell c and col[c] neighbour column c-1; columns
// beyond an open or short row's ends are empty. slot maps an entry back to
// its mirror slot; hit is the filter's output.
type gatherRow struct {
	x, y, z   []float64
	slot, hit []int32
	own, col  []int32
	n         int
}

// gather fills r for the home row (cy, cz). It is the one traversal of
// rowShell: the force kernel and the virial both range over its output.
func (r *gatherRow) gather(s *System, cy, cz int) {
	ncx, ncy := s.ncell[0], s.ncell[1]
	var rows [len(rowShell) - 1]struct {
		first  int
		sy, sz float64
	}
	nr := 0
	for _, o := range rowShell[1:] {
		ny, sy, oky := s.wrapCell(cy+o[0], 1)
		nz, sz, okz := s.wrapCell(cz+o[1], 2)
		if oky && okz {
			rows[nr].first, rows[nr].sy, rows[nr].sz = ncx*(ny+ncy*nz), sy, sz
			nr++
		}
	}
	home := ncx * (cy + ncy*cz)
	r.n, r.own, r.col = 0, r.own[:0], r.col[:0]
	for c := 0; c <= ncx; c++ {
		r.own = append(r.own, int32(r.n))
		if wc, sx, ok := s.wrapCell(c, 0); ok {
			r.add(s, home+wc, sx, 0, 0)
		}
	}
	r.own = append(r.own, int32(r.n))
	for c := -1; c <= ncx; c++ {
		r.col = append(r.col, int32(r.n))
		if wc, sx, ok := s.wrapCell(c, 0); ok {
			for _, row := range rows[:nr] {
				r.add(s, row.first+wc, sx, row.sy, row.sz)
			}
		}
	}
	r.col = append(r.col, int32(r.n))
}

// add appends the particles of one cell, displaced by its image shift.
func (r *gatherRow) add(s *System, cell int, sx, sy, sz float64) {
	j0, j1 := int(s.cstart[cell]), int(s.cstart[cell+1])
	n := r.n
	if need := n + j1 - j0; need > len(r.x) {
		r.grow(need + need/2)
	}
	for sj := j0; sj < j1; sj++ {
		r.x[n], r.y[n], r.z[n], r.slot[n] = s.px[sj]+sx, s.py[sj]+sy, s.pz[sj]+sz, int32(sj)
		n++
	}
	r.n = n
}

// grow makes room for n entries, keeping what is there.
func (r *gatherRow) grow(n int) {
	if n <= len(r.x) {
		return
	}
	r.x = append(r.x, make([]float64, n-len(r.x))...)
	r.y = append(r.y, make([]float64, n-len(r.y))...)
	r.z = append(r.z, make([]float64, n-len(r.z))...)
	r.slot = append(r.slot, make([]int32, n-len(r.slot))...)
	r.hit = append(r.hit, make([]int32, n-len(r.hit))...)
}

// wrapCell wraps cell coordinate c along axis d and returns the image shift
// that goes with the wrap (±L); ok is false when c leaves a non-periodic box,
// or the one cell of a short axis, whose images are folded per pair.
func (s *System) wrapCell(c, d int) (wrapped int, shift float64, ok bool) {
	if c >= 0 && c < s.ncell[d] {
		return c, 0, true
	}
	if !s.Periodic[d] || s.short[d] {
		return 0, 0, false
	}
	if c < 0 {
		return c + s.ncell[d], -s.boxLen[d], true
	}
	return c - s.ncell[d], s.boxLen[d], true
}

// foldShort applies the per-pair minimum image along the short axes.
func (s *System) foldShort(dx, dy, dz float64) (float64, float64, float64) {
	if s.short[0] {
		dx -= s.boxLen[0] * math.Round(dx/s.boxLen[0])
	}
	if s.short[1] {
		dy -= s.boxLen[1] * math.Round(dy/s.boxLen[1])
	}
	if s.short[2] {
		dz -= s.boxLen[2] * math.Round(dz/s.boxLen[2])
	}
	return dx, dy, dz
}
