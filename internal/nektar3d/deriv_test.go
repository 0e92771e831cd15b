package nektar3d

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// derivLines is the collocation derivative along dir one grid line at a
// time, the oracle of the whole-plane kernel calls: along x each node is its
// CSR row of the derivative times the line, summed from +0 in column order;
// along y and z each x-line of the output is one simd.Sweep of the matrix
// row over the lines it reads.
func derivLines(g *Grid, dst, f []float64, dir int) {
	nx, ny := g.Nx, g.Ny
	d := g.ax[dir].d
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < ny; j++ {
			r := nx * (j + ny*k)
			out := dst[r : r+nx]
			switch dir {
			case 0:
				for i := range out {
					var s float64
					for q := d.RowPtr[i]; q < d.RowPtr[i+1]; q++ {
						s += float64(d.Val[q] * f[r+d.ColIdx[q]])
					}
					out[i] = s
				}
			case 1:
				clear(out)
				sweep(out, 1, d, j, f, nx*ny*k, nx)
			case 2:
				clear(out)
				sweep(out, 1, d, k, f, nx*j, nx*ny)
			}
		}
	}
}

// edgeField draws a field whose values are normal numbers of every scale,
// with a share of ±0, subnormals and ±1e300 among them.
func edgeField(g *Grid, rng *rand.Rand) []float64 {
	f := g.NewField()
	for i := range f {
		switch r := rng.Float64(); {
		case r < 0.05:
			f[i] = 0
		case r < 0.1:
			f[i] = math.Copysign(0, -1)
		case r < 0.15:
			f[i] = math.Ldexp(rng.NormFloat64(), -1040-rng.Intn(30))
		case r < 0.2:
			f[i] = math.Copysign(1e300, rng.NormFloat64())
		default:
			f[i] = math.Ldexp(rng.NormFloat64(), rng.Intn(41)-20)
		}
	}
	return f
}

// randomDerivGrid draws a grid of 1–4 elements per axis, order 2–8, any
// periodicity and 1–3 workers.
func randomDerivGrid(t *testing.T, rng *rand.Rand) *Grid {
	g := must(NewGrid(1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4), 2+rng.Intn(7),
		0.5+rng.Float64(), 0.5+rng.Float64(), 0.5+rng.Float64(),
		rng.Intn(2) == 1, rng.Intn(2) == 1, rng.Intn(2) == 1))(t)
	g.Parallel = 1 + rng.Intn(3)
	return g
}

// requireBits holds got to want bit for bit.
func requireBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: node %d = %v (%#x), per-line oracle %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestDerivativesMatchLineOracle holds every derivative entry point (one
// direction, GradientInto, DivergenceInto) to the per-line oracle with
// math.Float64bits, on random grids of every periodicity with 1–4 elements
// per axis, orders 2–8 and 1–3 workers, over inputs with ±0, subnormals and
// ±1e300.
func TestDerivativesMatchLineOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 120; trial++ {
		g := randomDerivGrid(t, rng)
		name := fmt.Sprintf("trial %d (%dx%dx%d P=%d per=%t,%t,%t workers=%d)", trial,
			g.Nex, g.Ney, g.Nez, g.P, g.PerX, g.PerY, g.PerZ, g.Parallel)
		u, v, w := edgeField(g, rng), edgeField(g, rng), edgeField(g, rng)
		var want [3][]float64
		for dir, f := range [][]float64{u, v, w} {
			want[dir] = g.NewField()
			derivLines(g, want[dir], f, dir)
			got := g.NewField()
			g.derivInto(got, f, dir)
			requireBits(t, fmt.Sprintf("%s: derivative %d", name, dir), got, want[dir])
		}
		fx, fy, fz := g.NewField(), g.NewField(), g.NewField()
		g.GradientInto(fx, fy, fz, u)
		for dir, got := range [][]float64{fx, fy, fz} {
			oracle := g.NewField()
			derivLines(g, oracle, u, dir)
			requireBits(t, fmt.Sprintf("%s: gradient component %d", name, dir), got, oracle)
		}
		div := g.NewField()
		g.DivergenceInto(div, u, v, w)
		for i := range want[0] {
			want[0][i] = want[0][i] + want[1][i] + want[2][i]
		}
		requireBits(t, name+": divergence", div, want[0])
	}
}

// TestDerivativeNonFiniteInput says what a NaN or an infinity in the input
// does. Along y and z the whole-plane calls perform the per-line oracle's
// operations, so a non-finite node reaches the same nodes with the same
// values. Along x a band's dense row sums multiply the non-finite value by
// the derivative's zeros too, so every node of its x-line whose band spans
// its column is non-finite, where the oracle may leave some finite; every
// other node keeps the oracle's bits.
func TestDerivativeNonFiniteInput(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 40; trial++ {
		g := randomDerivGrid(t, rng)
		f := edgeField(g, rng)
		for range 1 + rng.Intn(3) {
			f[rng.Intn(len(f))] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
		}
		// spread reports whether x-derivative node i sums a non-finite input.
		spread := func(i int) bool {
			line := f[i-i%g.Nx:][:g.Nx]
			for _, b := range g.arena().xb {
				if r := i % g.Nx; r >= b.r0 && r < b.r0+b.rows {
					for _, v := range line[b.c0 : b.c0+b.cols] {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							return true
						}
					}
				}
			}
			return false
		}
		for dir := 0; dir < 3; dir++ {
			got, want := g.NewField(), g.NewField()
			g.derivInto(got, f, dir)
			derivLines(g, want, f, dir)
			for i := range want {
				switch {
				case dir == 0 && spread(i):
					if !math.IsNaN(got[i]) && !math.IsInf(got[i], 0) {
						t.Fatalf("trial %d: x-derivative node %d = %v, its band spans a non-finite input", trial, i, got[i])
					}
				case math.IsNaN(want[i]):
					if !math.IsNaN(got[i]) {
						t.Fatalf("trial %d: derivative %d node %d = %v, oracle NaN", trial, dir, i, got[i])
					}
				case math.Float64bits(got[i]) != math.Float64bits(want[i]):
					t.Fatalf("trial %d: derivative %d node %d = %v, oracle %v", trial, dir, i, got[i], want[i])
				}
			}
		}
	}
}
