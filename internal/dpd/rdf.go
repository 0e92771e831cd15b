package dpd

import (
	"fmt"
	"math"
)

// RadialDistribution computes g(r) over mobile-particle pairs in nbins bins
// up to rmax, the standard structural validation of a particle fluid: a DPD
// liquid with soft conservative repulsion shows a depleted core (g(0) < 1,
// but nonzero — particles can overlap), a weak first shell near rc, and
// g → 1 at large separation. rmax must not exceed half the smallest periodic
// box edge (minimum-image validity).
func (s *System) RadialDistribution(rmax float64, nbins int) []float64 {
	if nbins < 1 || rmax <= 0 {
		panic(fmt.Sprintf("dpd: RadialDistribution(rmax=%v, nbins=%d)", rmax, nbins))
	}
	sz := s.Size()
	for d, per := range s.Periodic {
		if !per {
			continue
		}
		edge := [3]float64{sz.X, sz.Y, sz.Z}[d]
		if rmax > edge/2 {
			panic(fmt.Sprintf("dpd: rmax %v exceeds half box edge %v", rmax, edge/2))
		}
	}

	var mobile []int
	for i := range s.Particles {
		if !s.Particles[i].Frozen {
			mobile = append(mobile, i)
		}
	}
	n := len(mobile)
	counts := make([]float64, nbins)
	r2max := rmax * rmax
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			d := s.minimumImage(s.Particles[mobile[a]].Pos, s.Particles[mobile[b]].Pos)
			r2 := d.Norm2()
			if r2 >= r2max {
				continue
			}
			bin := int(math.Sqrt(r2) / rmax * float64(nbins))
			if bin >= nbins {
				bin = nbins - 1
			}
			counts[bin] += 2 // each pair contributes to both particles
		}
	}
	// Normalize by the ideal-gas expectation per shell.
	rho := float64(n) / s.Volume()
	g := make([]float64, nbins)
	dr := rmax / float64(nbins)
	for k := 0; k < nbins; k++ {
		r0 := float64(float64(k) * dr)
		r1 := r0 + dr
		shell := 4 * math.Pi / 3 * (float64(r1*r1*r1) - float64(r0*r0*r0))
		ideal := rho * shell * float64(n)
		if ideal > 0 {
			g[k] = counts[k] / ideal
		}
	}
	return g
}
