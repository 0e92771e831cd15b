package dpd

import (
	"fmt"
	"math"
	"testing"

	"nektarg/internal/geometry"
)

// zWalls returns no-slip planes at z = 0 and z = lz.
func zWalls(lz float64) []Wall {
	return []Wall{
		&PlaneWall{Point: geometry.Vec3{}, Norm: geometry.Vec3{Z: 1}},
		&PlaneWall{Point: geometry.Vec3{Z: lz}, Norm: geometry.Vec3{Z: -1}},
	}
}

// xFluxFaces returns an inflow at x = 0 driven at unit velocity and a
// measured outflow at x = Hi.X, both at number density 3.
func xFluxFaces() []*FluxBC {
	return []*FluxBC{
		{Axis: 0, AtMax: false, Rho: 3, Vel: func(geometry.Vec3) geometry.Vec3 { return geometry.Vec3{X: 1} }},
		{Axis: 0, AtMax: true, Rho: 3},
	}
}

// TestPairKernelMatchesReference holds the gather/filter/force kernel to the
// linked-list kernel: after every one of 16 steps the pair forces of the two
// agree within 1e-12 of the largest force — the kernel sums a particle's
// pairs in another order and takes one division per pair where the reference
// takes two — over every boundary mix the solvers use, a non-cubic grid, two
// species, frozen particles, particle indices reshuffled by insertion and
// deletion, and tile counts from one to one per z-layer.
func TestPairKernelMatchesReference(t *testing.T) {
	for _, c := range pairKernelCases(t) {
		ncz := int(c.build().Size().Z)
		for _, tiles := range []int{1, 2, 3, 4, ncz} {
			t.Run(fmt.Sprintf("%s/tiles=%d", c.name, tiles), func(t *testing.T) {
				s := c.build()
				s.Parallel = tiles
				for step := 0; step < 16; step++ {
					s.VVStep()
					full := make([]geometry.Vec3, len(s.Particles))
					for i := range s.Particles {
						full[i] = s.Particles[i].F
					}
					s.pairForces()
					want := refPairForces(s, tiles)
					var fmax float64
					for i := range want {
						fmax = math.Max(fmax, want[i].Norm())
					}
					for i := range s.Particles {
						if got := s.Particles[i].F; got.Sub(want[i]).Norm() > 1e-12*fmax {
							t.Fatalf("step %d particle %d (id %d): pair force %v, reference kernel %v (max |F| %.3g)",
								s.Step, i, s.Particles[i].ID, got, want[i], fmax)
						}
						s.Particles[i].F = full[i]
					}
				}
				if len(s.Inflows) > 0 && (s.Inserted == 0 || s.Deleted == 0) {
					t.Fatalf("open box inserted %d and deleted %d particles: index reshuffling not exercised", s.Inserted, s.Deleted)
				}
			})
		}
	}
}

// pairKernelCase is one system the pair-kernel tests step.
type pairKernelCase struct {
	name  string
	build func() *System
}

// pairKernelCases are the systems of TestPairKernelMatchesReference: every
// boundary mix the solvers use, a non-cubic grid, two species, frozen
// particles, and an open box that inserts and deletes.
func pairKernelCases(t testing.TB) []pairKernelCase {
	box := func(x, y, z float64) geometry.Vec3 { return geometry.Vec3{X: x, Y: y, Z: z} }
	return []pairKernelCase{
		{"periodic", func() *System {
			s := must(NewSystem(DefaultParams(1), geometry.Vec3{}, box(5, 5, 5), [3]bool{true, true, true}))(t)
			s.FillRandom(375, 0)
			return s
		}},
		{"noncubic-3x5x7", func() *System {
			s := must(NewSystem(DefaultParams(1), box(-1, 2, 0.5), box(2, 7.2, 7.9), [3]bool{true, true, true}))(t)
			s.FillRandom(330, 0)
			return s
		}},
		{"zslab-flux", func() *System {
			s := must(NewSystem(DefaultParams(1), geometry.Vec3{}, box(6, 4, 5), [3]bool{false, true, false}))(t)
			s.Walls = zWalls(5)
			s.FillRandom(360, 0)
			s.Inflows = xFluxFaces()
			return s
		}},
		{"xy-periodic-walls", func() *System {
			s := must(NewSystem(DefaultParams(1), geometry.Vec3{}, box(4, 5, 6), [3]bool{true, true, false}))(t)
			s.Walls = zWalls(6)
			s.FillRandom(360, 0)
			return s
		}},
		{"species-frozen", func() *System {
			p := DefaultParams(2)
			p.A[0][1], p.A[1][0], p.A[1][1] = 40, 40, 10
			s := must(NewSystem(p, geometry.Vec3{}, box(4, 4, 6), [3]bool{true, true, false}))(t)
			s.FillRandom(200, 0)
			s.FillRandom(60, 1)
			// A frozen slab three particles deep under the fluid: frozen
			// pairs closer than the cutoff exist and must be skipped.
			for i := 0; i < 8; i++ {
				for j := 0; j < 8; j++ {
					for k := 0; k < 3; k++ {
						pos := box(0.25+0.5*float64(i), 0.25+0.5*float64(j), 0.1+0.3*float64(k))
						s.AddParticle(pos, geometry.Vec3{}, 1, true)
					}
				}
			}
			return s
		}},
	}
}

// TestForcesMatchAllPairs checks the cell walk against an O(N²) oracle that
// knows nothing of cells: every box edge from two cutoffs up, so that the
// two-cell axes — where the +1 and the -1 neighbour are one cell, and the
// image shift cannot be read off the cell pair — are covered next to the
// regular ones; plus one axis shorter than two cutoffs (a single cell that is
// its own neighbour) and non-periodic short axes, which must not be folded.
func TestForcesMatchAllPairs(t *testing.T) {
	for _, c := range allPairsBoxes() {
		s := allPairsSystem(t, c)
		s.pairForces()
		want := allPairsForces(s)
		var worst float64
		for i := range s.Particles {
			worst = math.Max(worst, s.Particles[i].F.Sub(want[i]).Norm())
		}
		if worst > 1e-10 {
			t.Errorf("box %v periodic %v: max |F - F_allpairs| = %.3g", c.edge, c.periodic, worst)
		}

		// The virial ranges over the same walk.
		var virial float64
		for i := range s.Particles {
			for j := i + 1; j < len(s.Particles); j++ {
				pi, pj := &s.Particles[i], &s.Particles[j]
				if r := s.minimumImage(pi.Pos, pj.Pos).Norm(); r < s.Rc && r > 0 {
					virial += r * s.A[pi.Species][pj.Species] * (1 - r/s.Rc)
				}
			}
		}
		wantP := s.NumberDensity()*s.Temperature() + virial/(3*s.Volume())
		if gotP := s.VirialPressure(); math.Abs(gotP-wantP) > 1e-10*math.Abs(wantP) {
			t.Errorf("box %v periodic %v: virial pressure %.12g, all-pairs %.12g", c.edge, c.periodic, gotP, wantP)
		}
	}
}

// allPairsBox is one box of TestForcesMatchAllPairs.
type allPairsBox struct {
	edge     [3]float64
	periodic [3]bool
}

// allPairsBoxes are every box edge from two cutoffs up, then one axis shorter
// than two cutoffs and non-periodic short axes.
func allPairsBoxes() []allPairsBox {
	var cases []allPairsBox
	edges := []float64{2, 2.5, 3, 4}
	for _, lx := range edges {
		for _, ly := range edges {
			for _, lz := range edges {
				cases = append(cases, allPairsBox{[3]float64{lx, ly, lz}, [3]bool{true, true, true}})
			}
		}
	}
	return append(cases,
		allPairsBox{[3]float64{1.5, 4, 4}, [3]bool{true, true, true}},
		allPairsBox{[3]float64{4, 1.5, 2}, [3]bool{true, true, true}},
		allPairsBox{[3]float64{2, 2.5, 3}, [3]bool{false, true, true}},
		allPairsBox{[3]float64{2, 2, 2}, [3]bool{true, false, true}},
		allPairsBox{[3]float64{2.5, 3, 2}, [3]bool{true, true, false}},
	)
}

// allPairsSystem fills box c at number density 3 with two species.
func allPairsSystem(t testing.TB, c allPairsBox) *System {
	p := DefaultParams(2)
	p.A[0][1], p.A[1][0] = 35, 35
	hi := geometry.Vec3{X: c.edge[0], Y: c.edge[1], Z: c.edge[2]}
	s := must(NewSystem(p, geometry.Vec3{}, hi, c.periodic))(t)
	n := int(3 * s.Volume())
	s.FillRandom(n-n/4, 0)
	s.FillRandom(n/4, 1)
	return s
}
