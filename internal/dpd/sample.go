package dpd

import (
	"fmt"

	"nektarg/internal/geometry"
)

// BinGrid averages particle velocities over spatial bins "of a size
// comparable to the cutoff radius rc" (§3.4); its snapshots feed both the
// continuum coupling and the WPOD analysis.
type BinGrid struct {
	Lo, Hi     geometry.Vec3
	Nx, Ny, Nz int

	count []float64
	sumU  []geometry.Vec3
	// snapshots accumulated over a sampling window of Nts steps
	windowCount []float64
	windowU     []geometry.Vec3
}

// NewBinGrid builds an empty bin grid over [lo, hi].
func NewBinGrid(lo, hi geometry.Vec3, nx, ny, nz int) *BinGrid {
	if nx < 1 || ny < 1 || nz < 1 {
		panic(fmt.Sprintf("dpd: bad bin grid %dx%dx%d", nx, ny, nz))
	}
	n := nx * ny * nz
	return &BinGrid{
		Lo: lo, Hi: hi, Nx: nx, Ny: ny, Nz: nz,
		count:       make([]float64, n),
		sumU:        make([]geometry.Vec3, n),
		windowCount: make([]float64, n),
		windowU:     make([]geometry.Vec3, n),
	}
}

// NumBins returns the bin count.
func (b *BinGrid) NumBins() int { return b.Nx * b.Ny * b.Nz }

// binOf returns the bin index of a position, or -1 when outside.
func (b *BinGrid) binOf(p geometry.Vec3) int {
	sz := b.Hi.Sub(b.Lo)
	fx := (p.X - b.Lo.X) / sz.X
	fy := (p.Y - b.Lo.Y) / sz.Y
	fz := (p.Z - b.Lo.Z) / sz.Z
	if fx < 0 || fx >= 1 || fy < 0 || fy >= 1 || fz < 0 || fz >= 1 {
		return -1
	}
	i := int(fx * float64(b.Nx))
	j := int(fy * float64(b.Ny))
	k := int(fz * float64(b.Nz))
	return i + b.Nx*(j+b.Ny*k)
}

// Accumulate folds the current particle velocities into both the long-run
// average and the current sampling window. Frozen particles are excluded.
func (b *BinGrid) Accumulate(s *System) {
	for i := range s.Particles {
		p := &s.Particles[i]
		if p.Frozen {
			continue
		}
		n := b.binOf(p.Pos)
		if n < 0 {
			continue
		}
		b.count[n]++
		b.sumU[n] = b.sumU[n].Add(p.Vel)
		b.windowCount[n]++
		b.windowU[n] = b.windowU[n].Add(p.Vel)
	}
}

// MeanVelocity returns the long-run average velocity per bin (zero where no
// samples landed): the "standard averaging" baseline of Figure 7.
func (b *BinGrid) MeanVelocity() []geometry.Vec3 {
	out := make([]geometry.Vec3, b.NumBins())
	for n := range out {
		if b.count[n] > 0 {
			out[n] = b.sumU[n].Scale(1 / b.count[n])
		}
	}
	return out
}

// Snapshot returns the window-averaged velocity field and resets the window;
// these are the WPOD snapshots ("velocity field snapshots are computed by
// sampling (averaging) data over short time-intervals, typically Nts =
// [50 500] time-steps").
func (b *BinGrid) Snapshot() []geometry.Vec3 {
	out := make([]geometry.Vec3, b.NumBins())
	for n := range out {
		if b.windowCount[n] > 0 {
			out[n] = b.windowU[n].Scale(1 / b.windowCount[n])
		}
		b.windowCount[n] = 0
		b.windowU[n] = geometry.Vec3{}
	}
	return out
}

// Component extracts one component (0=x,1=y,2=z) of a vector field.
func Component(field []geometry.Vec3, c int) []float64 {
	out := make([]float64, len(field))
	for i, v := range field {
		switch c {
		case 0:
			out[i] = v.X
		case 1:
			out[i] = v.Y
		default:
			out[i] = v.Z
		}
	}
	return out
}

// SampleVelocityAt estimates the local fluid velocity around a point by
// averaging mobile-particle velocities within radius rc. It is the DPD->
// continuum half of the interface exchange. Returns the count used.
func (s *System) SampleVelocityAt(p geometry.Vec3, radius float64) (geometry.Vec3, int) {
	var sum geometry.Vec3
	var n int
	r2 := radius * radius
	for i := range s.Particles {
		q := &s.Particles[i]
		if q.Frozen {
			continue
		}
		if s.inSampleRange(q.Pos, p, r2) {
			sum = sum.Add(q.Vel)
			n++
		}
	}
	if n > 0 {
		sum = sum.Scale(1 / float64(n))
	}
	return sum, n
}

// inSampleRange reports whether q lies within √r2 of p under the minimum
// image. On a non-periodic axis the separation is final, and one squared
// component above r2 puts the sum above it too (adding non-negative terms
// never rounds below one of them): the minimum-image rounding is skipped
// there, with the accepted set unchanged.
func (s *System) inSampleRange(q, p geometry.Vec3, r2 float64) bool {
	d := q.Sub(p)
	if !s.Periodic[0] && d.X*d.X > r2 || !s.Periodic[1] && d.Y*d.Y > r2 || !s.Periodic[2] && d.Z*d.Z > r2 {
		return false
	}
	return s.minimumImage(q, p).Norm2() <= r2
}
