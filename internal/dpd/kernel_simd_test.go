package dpd

import (
	"fmt"
	"slices"
	"testing"

	"nektarg/internal/geometry"
)

// goKernel runs f with the Go pair loops in place of the AVX2 kernel.
func goKernel(f func()) {
	defer func(v bool) { useAVX2 = v }(useAVX2)
	useAVX2 = false
	f()
}

// requireSameHits runs the Go filter and the AVX2 filter for every home
// particle of every row of s's cell layout and requires == hit lists. Boxes
// with a short axis have no AVX2 filter.
func requireSameHits(t testing.TB, s *System) {
	t.Helper()
	s.buildCells()
	if s.short[0] || s.short[1] || s.short[2] {
		return
	}
	var row gatherRow
	row.grow(len(s.Particles))
	var want []int32
	for cz := 0; cz < s.ncell[2]; cz++ {
		for cy := 0; cy < s.ncell[1]; cy++ {
			row.gather(s, cy, cz)
			np := row.n + rowPad
			for cx := 0; cx < s.ncell[0]; cx++ {
				ownEnd, col0, col1 := int(row.own[cx+2]), int(row.col[cx]), int(row.col[cx+3])
				for a := int(row.own[cx]); a < int(row.own[cx+1]); a++ {
					n := s.filter(&row, a, a+1, ownEnd, 0)
					n = s.filter(&row, a, col0, col1, n)
					want = append(want[:0], row.hit[:n]...)
					got := filterAVX2(row.x[:np], row.y[:np], row.z[:np], row.hit[:np], a, ownEnd, col0, col1, s.Rc*s.Rc)
					if !slices.Equal(row.hit[:got], want) {
						t.Fatalf("row (%d, %d) entry %d: AVX2 hits %v, Go hits %v", cy, cz, a, row.hit[:got], want)
					}
				}
			}
		}
	}
}

// requireSameParticles requires every particle of a and b to be ==.
func requireSameParticles(t testing.TB, a, b *System) {
	t.Helper()
	if len(a.Particles) != len(b.Particles) {
		t.Fatalf("%d particles with the AVX2 kernel, %d with the Go kernel", len(a.Particles), len(b.Particles))
	}
	for i := range a.Particles {
		if a.Particles[i] != b.Particles[i] {
			t.Fatalf("step %d particle %d:\n  AVX2 %+v\n  Go   %+v", a.Step, i, a.Particles[i], b.Particles[i])
		}
	}
}

// TestAVX2KernelMatchesGo holds the AVX2 pair sweep to the Go loops, its
// oracle: equal hit lists for every home particle and == particles after
// every step, over the systems and tile counts of
// TestPairKernelMatchesReference and the boxes of TestForcesMatchAllPairs,
// whose short axes keep the Go loops.
func TestAVX2KernelMatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 kernel on this host: the Go loops are the kernel")
	}
	for _, c := range pairKernelCases(t) {
		ncz := int(c.build().Size().Z)
		for _, tiles := range []int{1, 2, 3, 4, ncz} {
			t.Run(fmt.Sprintf("%s/tiles=%d", c.name, tiles), func(t *testing.T) {
				simd, ref := c.build(), c.build()
				simd.Parallel, ref.Parallel = tiles, tiles
				for step := 0; step < 16; step++ {
					requireSameHits(t, simd)
					simd.VVStep()
					goKernel(ref.VVStep)
					requireSameParticles(t, simd, ref)
				}
			})
		}
	}
	for _, c := range allPairsBoxes() {
		simd, ref := allPairsSystem(t, c), allPairsSystem(t, c)
		requireSameHits(t, simd)
		simd.pairForces()
		goKernel(ref.pairForces)
		requireSameParticles(t, simd, ref)
	}
}

// FuzzPairKernel builds a box of three to five cutoffs per axis, each open or
// periodic, from the input, swept by one to three tiles: a random fill, then particles on a grid of pitch rc/8 — so that
// pairs at exactly the cutoff, and at distance zero, are common — with
// species, frozen flag and velocity from the input too. The AVX2 and Go
// kernels must give == hit lists and == pair forces.
func FuzzPairKernel(f *testing.F) {
	f.Add(uint64(1), uint16(0x1ff), uint16(60), []byte{0, 0, 0, 8, 0, 0, 0, 8, 0, 0, 0, 8, 16, 16, 16, 24, 16, 16})
	f.Add(uint64(7), uint16(0x212), uint16(0), []byte{1, 2, 3, 9, 2, 3, 1, 2, 3, 1, 10, 3, 255, 255, 255})
	f.Fuzz(func(t *testing.T, seed uint64, shape, fill uint16, grid []byte) {
		if !useAVX2 {
			t.Skip("no AVX2 kernel on this host")
		}
		if len(grid) > 3*400 {
			grid = grid[:3*400]
		}
		var edge [3]float64
		var periodic [3]bool
		for d := range edge {
			edge[d] = float64(3 + int(shape>>(2*d)&3)%3)
			periodic[d] = shape>>(6+d)&1 == 1
		}
		build := func() *System {
			p := DefaultParams(2)
			p.Seed = seed
			p.A[0][1], p.A[1][0] = 35, 35
			s := must(NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: edge[0], Y: edge[1], Z: edge[2]}, periodic))(t)
			s.Parallel = 1 + int(shape>>9)%3
			s.FillRandom(int(fill)%300, int(seed%2))
			for k := 0; k+3 <= len(grid); k += 3 {
				b := grid[k : k+3]
				pos := geometry.Vec3{
					X: float64(int(b[0])%int(8*edge[0])) / 8,
					Y: float64(int(b[1])%int(8*edge[1])) / 8,
					Z: float64(int(b[2])%int(8*edge[2])) / 8,
				}
				vel := geometry.Vec3{X: float64(int8(b[0])) / 64, Y: float64(int8(b[1])) / 64, Z: float64(int8(b[2])) / 64}
				s.AddParticle(pos, vel, int(b[0]^b[1])&1, (b[1]^b[2])&3 == 0)
			}
			return s
		}
		simd, ref := build(), build()
		requireSameHits(t, simd)
		simd.pairForces()
		goKernel(ref.pairForces)
		requireSameParticles(t, simd, ref)
	})
}
