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
		s.cellLen[d] = s.boxLen[d] / float64(s.ncell[d])
		s.short[d] = s.Periodic[d] && s.ncell[d] < 3
	}
	s.setShellRules()

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

// shellRule says how the cell walk treats one halfShell offset.
type shellRule uint8

const (
	shellVisit shellRule = iota
	shellSkip
	// shellOnce marks an offset that is its own inverse (non-zero only along
	// two-cell periodic axes): both cells of the pair reach each other
	// through it, so only the lower cell id is the home.
	shellOnce
)

// setShellRules adapts the half-shell to short periodic axes, where wrapping
// makes distinct offsets reach the same neighbour cell: along a one-cell axis
// every offset is the cell itself, along a two-cell axis -1 is +1. Dropping
// the duplicates leaves the sign of an offset to be read over the remaining
// axes only. With no short axis every rule is shellVisit.
func (s *System) setShellRules() {
	for k, off := range halfShell {
		rule, lead := shellVisit, 0
		for d := 2; d >= 0 && rule == shellVisit; d-- {
			switch o := off[d]; {
			case o == 0:
			case s.short[d]:
				if s.ncell[d] == 1 || o < 0 {
					rule = shellSkip
				}
			case lead == 0:
				lead = o
			}
		}
		if rule == shellVisit && k > 0 {
			if lead < 0 {
				rule = shellSkip
			} else if lead == 0 {
				rule = shellOnce
			}
		}
		s.shell[k] = rule
	}
}

// cellWalk iterates the half-shell cell pairs whose home cell lies in the
// z-layers [z0, z1), in home-cell order (z, y, x) and halfShell order within
// a home — every distinct pair of neighbouring cells exactly once over the
// whole grid. It is the one cell traversal: the force kernel and the virial
// both range over it.
//
//	w := s.walkCells(z0, z1)
//	for w.next() { ... w.home, w.nbr ... }
type cellWalk struct {
	s             *System
	z1            int
	cx, cy, cz, k int

	home, nbr int  // cell ids of the current pair
	nz        int  // z-layer of nbr
	same      bool // nbr == home: pair each slot with the later ones only
	// shift is the periodic image offset of the pair: for particle i in home
	// and j in nbr, r_ij = pos_i - pos_j - shift, equal to the per-pair
	// minimum image on every axis of three or more cells. Short axes carry 0
	// and are folded per pair (foldShort).
	shift geometry.Vec3
}

func (s *System) walkCells(z0, z1 int) cellWalk {
	return cellWalk{s: s, z1: z1, cx: -1, cz: z0, k: len(halfShell) - 1}
}

func (w *cellWalk) next() bool {
	s := w.s
	for {
		if w.k++; w.k == len(halfShell) {
			w.k = 0
			if w.cx++; w.cx == s.ncell[0] {
				w.cx = 0
				if w.cy++; w.cy == s.ncell[1] {
					w.cy = 0
					w.cz++
				}
			}
			if w.cz >= w.z1 {
				return false
			}
			w.home = w.cx + s.ncell[0]*(w.cy+s.ncell[1]*w.cz)
		}
		rule := s.shell[w.k]
		if rule == shellSkip {
			continue
		}
		off := &halfShell[w.k]
		nx, sx, okx := s.wrapCell(w.cx+off[0], 0)
		ny, sy, oky := s.wrapCell(w.cy+off[1], 1)
		nz, sz, okz := s.wrapCell(w.cz+off[2], 2)
		if !okx || !oky || !okz {
			continue
		}
		w.nbr = nx + s.ncell[0]*(ny+s.ncell[1]*nz)
		if rule == shellOnce && w.nbr < w.home {
			continue
		}
		w.nz = nz
		w.same = w.k == 0
		w.shift = geometry.Vec3{X: sx, Y: sy, Z: sz}
		return true
	}
}

// wrapCell wraps cell coordinate c along axis d and returns the image shift
// that goes with the wrap (±L; 0 on a short axis); ok is false when c leaves
// a non-periodic box.
func (s *System) wrapCell(c, d int) (wrapped int, shift float64, ok bool) {
	if c >= 0 && c < s.ncell[d] {
		return c, 0, true
	}
	if !s.Periodic[d] {
		return 0, 0, false
	}
	shift = s.boxLen[d]
	if c < 0 {
		c += s.ncell[d]
		shift = -shift
	} else {
		c -= s.ncell[d]
	}
	if s.short[d] {
		shift = 0
	}
	return c, shift, true
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
