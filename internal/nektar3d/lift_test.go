package nektar3d

import (
	"math"
	"math/rand"
	"testing"

	"nektarg/internal/geometry"
	"nektarg/internal/sem"
)

// specialValue draws a value that is often an edge case of IEEE arithmetic:
// a signed zero, a subnormal, ±1e300, an infinity, a NaN with a random
// payload, and otherwise a normal draw.
func specialValue(rng *rand.Rand) float64 {
	switch rng.Intn(16) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return float64(rng.Intn(2000)-1000) * 5e-324
	case 3:
		return math.Copysign(1e300, rng.Float64()-0.5)
	case 4:
		return math.Inf(1 - 2*rng.Intn(2))
	case 5:
		return math.Float64frombits(0x7ff0000000000001 | rng.Uint64()&0x800fffffffffffff)
	default:
		return rng.NormFloat64()
	}
}

// liftOracle is the lifted right-hand side as the whole operator forms it:
// b = M f - (lambda M + K) ug, then 0 on the mask.
func liftOracle(g *Grid, lambda float64, f, ug []float64) []float64 {
	b := g.NewField()
	op := &helmholtzOp{g: g, lambda: lambda}
	op.Apply(b, ug)
	for i := range b {
		b[i] = float64(g.massDiag[i]*f[i]) - b[i]
	}
	for i, m := range g.arena().mask {
		if m {
			b[i] = 0
		}
	}
	return b
}

// sameBits reports whether a and b are the same float64 bits, or both NaN:
// which of two NaN operands an add passes on is the compiler's choice of
// operand order (the race detector's instrumentation flips it), so a NaN's
// payload is not part of the arithmetic the lift must reproduce.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// TestLiftMatchesOperator holds liftRHS, which reads only the face columns
// of the stiffness factors, to the whole masked operator bit for bit, on
// random grids of every periodicity, 1-4 elements per axis and orders 2-8,
// with right-hand sides and boundary data full of signed zeros,
// subnormals, huge values, infinities and NaNs.
func TestLiftMatchesOperator(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for n := 0; n < 400; n++ {
		ne := [3]int{1 + rng.Intn(4), 1 + rng.Intn(4), 1 + rng.Intn(4)}
		p := 2 + rng.Intn(7)
		per := [3]bool{rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0}
		g := must(NewGrid(ne[0], ne[1], ne[2], p, 1+rng.Float64(), 0.5+rng.Float64(), 2*rng.Float64()+0.1, per[0], per[1], per[2]))(t)
		ar := g.arena()
		f, ug := g.NewField(), g.NewField()
		for i := range f {
			f[i] = specialValue(rng)
			if ar.mask[i] {
				ug[i] = specialValue(rng)
			}
		}
		lambda := [3]float64{0, 1.7, 300}[n%3]
		want := liftOracle(g, lambda, f, ug)
		got := g.NewField()
		ar.liftRHS(got, f, ug)
		for i := range got {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("grid %d (%v elements, order %d, periodic %v, lambda %v): node %d is %v (%#x), the operator gives %v (%#x)",
					n, ne, p, per, lambda, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}

// sampleRef is the one-field interpolation SampleVelocity's components are
// held to: the tensor-product Lagrange sum with the barycentric constants
// recomputed at every point and every node index from gid.
func sampleRef(g *Grid, f []float64, p geometry.Vec3) float64 {
	ex, xi := locate1D(p.X, g.Lx, g.Nex, g.PerX)
	ey, eta := locate1D(p.Y, g.Ly, g.Ney, g.PerY)
	ez, zeta := locate1D(p.Z, g.Lz, g.Nez, g.PerZ)
	weights := func(b *sem.Basis1D, xi float64) []float64 {
		out := make([]float64, b.P+1)
		for i, x := range b.Nodes {
			if xi == x {
				out[i] = 1
				return out
			}
		}
		var den float64
		for i := range out {
			w := 1.0
			for j := range out {
				if j != i {
					w /= b.Nodes[i] - b.Nodes[j]
				}
			}
			out[i] = w / (xi - b.Nodes[i])
			den += out[i]
		}
		for i := range out {
			out[i] /= den
		}
		return out
	}
	lx, ly, lz := weights(g.Basis, xi), weights(g.Basis, eta), weights(g.Basis, zeta)
	var s float64
	for k := range lz {
		for j := range ly {
			for i := range lx {
				if lx[i] != 0 && ly[j] != 0 && lz[k] != 0 {
					s += float64(lx[i] * float64(ly[j]*lz[k]) * f[g.gid(ex, ey, ez, i, j, k)])
				}
			}
		}
	}
	return s
}

// TestSampleVelocityMatchesSample holds the three-field stencil to three
// one-field samples (sampleRef), bit for bit, at random points, at nodes
// (element boundaries and the box's corners included), at points outside
// the box that clamp to a face, and at points a periodic axis wraps across
// its seam.
func TestSampleVelocityMatchesSample(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 40; n++ {
		ne := [3]int{1 + rng.Intn(3), 1 + rng.Intn(3), 1 + rng.Intn(3)}
		p := 2 + rng.Intn(7)
		per := [3]bool{rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0}
		size := [3]float64{1 + rng.Float64(), 0.5 + rng.Float64(), 2*rng.Float64() + 0.1}
		g := must(NewGrid(ne[0], ne[1], ne[2], p, size[0], size[1], size[2], per[0], per[1], per[2]))(t)
		u, v, w := randomField(g, int64(3*n)), randomField(g, int64(3*n+1)), randomField(g, int64(3*n+2))
		coords := [3][]float64{g.X, g.Y, g.Z}
		for q := 0; q < 60; q++ {
			var c [3]float64
			for d := range c {
				switch q % 4 {
				case 0: // inside
					c[d] = rng.Float64() * size[d]
				case 1: // on a node, or on the far face
					if i := rng.Intn(len(coords[d]) + 1); i < len(coords[d]) {
						c[d] = coords[d][i]
					} else {
						c[d] = size[d]
					}
				case 2: // outside: clamped, or wrapped across the seam
					c[d] = size[d] * (1 + rng.Float64())
				case 3:
					c[d] = -size[d] * rng.Float64()
				}
			}
			pt := geometry.Vec3{X: c[0], Y: c[1], Z: c[2]}
			gu, gv, gw := g.SampleVelocity(u, v, w, pt)
			for i, got := range [3]float64{gu, gv, gw} {
				if want := sampleRef(g, [3][]float64{u, v, w}[i], pt); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("grid %d (%v elements, order %d, periodic %v) point %v component %d: SampleVelocity %v, one-field sample %v",
						n, ne, p, per, pt, i, got, want)
				}
			}
		}
	}
}
