package simd_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nektarg/internal/linalg"
	"nektarg/internal/nektar3d"
	"nektarg/internal/sem"
	"nektarg/internal/simd"
)

// semAxis is one axis of a spectral-element box with the 1D factors the line
// kernels apply: the C0 stiffness k, the averaged derivative d and the mode
// decompositions (natural, and Dirichlet where the axis has ends).
type semAxis struct {
	name  string
	k, d  *linalg.CSR
	modes []*sem.Modes1D
}

func newSEMAxis(t testing.TB, elements, order int, length float64, periodic bool) semAxis {
	t.Helper()
	m := sem.NewMesh1D(sem.NewBasis1D(order), elements, 0, length)
	k, d, _ := m.Factors(periodic)
	ax := semAxis{name: fmt.Sprintf("E=%d,P=%d,periodic=%t", elements, order, periodic), k: k, d: d}
	dirichlet := []bool{false}
	if !periodic {
		dirichlet = append(dirichlet, true)
	}
	for _, dir := range dirichlet {
		md, err := m.Modes(periodic, dir)
		if err != nil {
			t.Fatalf("%s: %v", ax.name, err)
		}
		ax.modes = append(ax.modes, md)
	}
	return ax
}

// parityAxes are the axes of nektar3d's parityGrids: orders 2–8 on a 3×2×1
// box periodic in y, and the three mixed grids.
func parityAxes(t testing.TB) []semAxis {
	type grid struct {
		e     [3]int
		order int
		size  [3]float64
		per   [3]bool
	}
	var grids []grid
	for p := 2; p <= 8; p++ {
		grids = append(grids, grid{[3]int{3, 2, 1}, p, [3]float64{1.0, 0.8, 1.3}, [3]bool{false, true, false}})
	}
	grids = append(grids,
		grid{[3]int{5, 3, 2}, 4, [3]float64{2.0, 1.0, 1.5}, [3]bool{true, true, true}},
		grid{[3]int{1, 1, 7}, 5, [3]float64{0.7, 0.9, 3.0}, [3]bool{false, false, true}},
		grid{[3]int{6, 6, 6}, 3, [3]float64{1, 1, 1}, [3]bool{false, false, false}},
	)
	var axes []semAxis
	for _, g := range grids {
		for d := 0; d < 3; d++ {
			axes = append(axes, newSEMAxis(t, g.e[d], g.order, g.size[d], g.per[d]))
		}
	}
	return axes
}

// values draws n finite values of magnitude 2^±scale, a fraction zeros of
// them ±0, so that products of either sign of zero occur.
func values(rng *rand.Rand, n, scale int, zeros float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch {
		case rng.Float64() < zeros/2:
			v[i] = 0
		case rng.Float64() < zeros/2:
			v[i] = math.Copysign(0, -1)
		default:
			v[i] = math.Ldexp(rng.NormFloat64(), rng.Intn(2*scale+1)-scale)
		}
	}
	return v
}

// requireSame holds the kernel's output to the Go loops' with ==.
func requireSame(t testing.TB, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] || math.Signbit(got[i]) != math.Signbit(want[i]) {
			t.Fatalf("%s: element %d: AVX2 %v (%#x), Go %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// both runs f on a copy of y with the kernels, and on another with the Go
// loops, and requires == outputs.
func both(t testing.TB, what string, y []float64, f func(y []float64)) {
	t.Helper()
	got, want := append([]float64(nil), y...), append([]float64(nil), y...)
	f(got)
	simd.GoKernels(func() { f(want) })
	requireSame(t, what, got, want)
}

// checkSEMKernels runs every line kernel on the axis's factors with random
// data: the x-line mat-vecs of both mode decompositions' S and Sᵀ over one to
// thirteen lines, packed and strided, the band product of k and d over lines whose length has
// each remainder mod 4, the sweep of every row of k and d over outputs of
// each length mod 4, the sweep of all rows at once and of one row alone over
// lines of every length mod 16, and the contractions by both decompositions'
// S and Sᵀ over a random inner length and plane count.
func checkSEMKernels(t testing.TB, ax semAxis, rng *rand.Rand, scale int, zeros float64) {
	t.Helper()
	for mi, md := range ax.modes {
		for _, lines := range []int{1, 2, 3, 13} {
			for _, f := range []struct {
				name       string
				a, at      []float64
				rows, cols int
			}{
				{"Sᵀ", md.ST, md.S, md.Modes, md.Nodes},
				{"S", md.S, md.ST, md.Nodes, md.Modes},
			} {
				x := values(rng, lines*f.cols, scale, zeros)
				y := values(rng, lines*f.rows, scale, zeros)
				both(t, fmt.Sprintf("%s: MatVecs %s of modes %d, %d lines", ax.name, f.name, mi, lines), y, func(y []float64) {
					simd.MatVecs(y, f.a, f.at, x, f.rows, f.cols, lines, f.rows, f.cols)
				})
				// The same product over lines spread out: strides past the
				// row and column counts, the gaps in y left as they were.
				ys, xs := f.rows+1+rng.Intn(3), f.cols+rng.Intn(3)
				xw := values(rng, (lines-1)*xs+f.cols, scale, zeros)
				yw := values(rng, (lines-1)*ys+f.rows+2, scale, zeros)
				both(t, fmt.Sprintf("%s: MatVecs %s of modes %d, %d lines, strides %d, %d", ax.name, f.name, mi, lines, ys, xs), yw, func(y []float64) {
					simd.MatVecs(y, f.a, f.at, xw, f.rows, f.cols, lines, ys, xs)
				})
			}
		}
	}
	n := ax.k.Rows
	for _, m := range []struct {
		name string
		a    *linalg.CSR
	}{{"k", ax.k}, {"d", ax.d}} {
		a := m.a
		x := values(rng, n, scale, zeros)
		c := math.Ldexp(rng.NormFloat64(), rng.Intn(2*scale+1)-scale)
		for rows := n; rows > 0 && rows > n-4; rows-- {
			y := values(rng, rows, scale, zeros)
			both(t, fmt.Sprintf("%s: BandMulAdd %s, %d rows", ax.name, m.name, rows), y, func(y []float64) {
				simd.BandMulAdd(y, c, a.RowPtr, a.ColIdx, a.Val, x)
			})
		}
		for _, width := range []int{1, 2, 3, 4, 5, 6, 7, 8, n} {
			stride := width + rng.Intn(3)
			base := rng.Intn(4)
			src := values(rng, base+(n-1)*stride+width, scale, zeros)
			for i := 0; i < n; i++ {
				lo, hi := a.RowPtr[i], a.RowPtr[i+1]
				out := values(rng, width, scale, zeros)
				both(t, fmt.Sprintf("%s: Sweep %s row %d, width %d", ax.name, m.name, i, width), out, func(out []float64) {
					simd.Sweep(out, c, a.Val[lo:hi], a.ColIdx[lo:hi], src, base, stride)
				})
			}
		}
		for _, width := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 33, n} {
			src := values(rng, n*width, scale, zeros)
			out := values(rng, n*width+5, scale, zeros) // five past the last line
			both(t, fmt.Sprintf("%s: SweepRows %s, width %d", ax.name, m.name, width), out, func(out []float64) {
				simd.SweepRows(out, c, a.RowPtr, a.ColIdx, a.Val, src, width)
			})
			i := rng.Intn(n)
			both(t, fmt.Sprintf("%s: SweepRows %s row %d alone, width %d", ax.name, m.name, i, width), out, func(out []float64) {
				simd.SweepRows(out, c, a.RowPtr[i:i+2], a.ColIdx, a.Val, src, width)
			})
		}
	}
	for _, md := range ax.modes {
		inner := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 23}[rng.Intn(10)]
		outer := 1 + rng.Intn(3)
		checkContract(t, rng, md.ST, md.Modes, md.Nodes, inner, outer, scale, zeros)
		checkContract(t, rng, md.S, md.Nodes, md.Modes, inner, outer, scale, zeros)
	}
}

// TestSEMKernelsMatchGo holds each AVX2 line kernel to its Go loop with ==
// on every axis of parityGrids (orders 2–8, natural and Dirichlet mode
// counts, periodic seams), on lines and outputs of every length mod 4.
func TestSEMKernelsMatchGo(t *testing.T) {
	if !simd.HasAVX2() {
		t.Skip("no AVX2 kernels on this host: the Go loops are the kernels")
	}
	rng := rand.New(rand.NewSource(40))
	for _, ax := range parityAxes(t) {
		checkSEMKernels(t, ax, rng, 4, 0.1)
	}
}

// FuzzSEMKernels builds an axis from the input (order 2–8, one to eight
// elements, open or periodic) and runs every kernel on it as
// TestSEMKernelsMatchGo does, with values of magnitude up to 2^±scale and a
// share of them ±0, all drawn from the seed.
func FuzzSEMKernels(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(3), uint8(0), uint8(4), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, order, elements, flags, scale, zeros uint8) {
		if !simd.HasAVX2() {
			t.Skip("no AVX2 kernels on this host")
		}
		ax := newSEMAxis(t, 1+int(elements)%8, 2+int(order)%7, 0.5+float64(flags>>1&7), flags&1 == 1)
		rng := rand.New(rand.NewSource(int64(seed)))
		checkSEMKernels(t, ax, rng, int(scale)%64, float64(zeros)/255)
	})
}

// TestSEMKernelsRefuseBadIndices gives the kernels rows and columns that
// point outside their arrays: each must panic, as the Go loops do, and not
// read or write out of bounds.
func TestSEMKernelsRefuseBadIndices(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	x := make([]float64, 8)
	y := make([]float64, 8)
	val := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	rowPtr := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
	for _, col := range []int{-1, 8, 1 << 40} {
		colIdx := []int{0, 1, 2, 3, 4, 5, col, 7}
		mustPanic(fmt.Sprintf("BandMulAdd column %d", col), func() { simd.BandMulAdd(y, 1, rowPtr, colIdx, val, x) })
		mustPanic(fmt.Sprintf("Sweep column %d", col), func() { simd.Sweep(y[:4], 1, val[:3], colIdx[5:8], x, 0, 1) })
		mustPanic(fmt.Sprintf("SweepRows column %d", col), func() { simd.SweepRows(y, 1, rowPtr, colIdx, val, x, 1) })
	}
	mustPanic("BandMulAdd row past val", func() { simd.BandMulAdd(y, 1, []int{0, 1, 2, 3, 4, 5, 6, 7, 9}, rowPtr, val, x) })
	mustPanic("BandMulAdd empty row", func() { simd.BandMulAdd(y, 1, []int{0, 1, 2, 3, 3, 5, 6, 7, 8}, rowPtr, val, x) })
	mustPanic("BandMulAdd short rowPtr", func() { simd.BandMulAdd(y, 1, rowPtr[:8], rowPtr, val, x) })
	mustPanic("Sweep past src", func() { simd.Sweep(y[:4], 1, val[:2], []int{0, 1}, x, 5, 1) })
	mustPanic("SweepRows row past val", func() { simd.SweepRows(y, 1, []int{0, 1, 2, 3, 4, 5, 6, 7, 9}, rowPtr, val, x, 1) })
	mustPanic("SweepRows falling row", func() { simd.SweepRows(y, 1, []int{0, 1, 2, 3, 4, 3, 6, 7, 8}, rowPtr, val, x, 1) })
	mustPanic("SweepRows short out", func() { simd.SweepRows(y[:7], 1, rowPtr, rowPtr, val, x, 1) })
	mustPanic("SweepRows past src", func() { simd.SweepRows(y[:5], 1, []int{0, 2}, []int{0, 1}, val, x[:6], 5) })
	mustPanic("MatVecs short x", func() { simd.MatVecs(y, val, val, x[:7], 2, 4, 2, 2, 4) })
	mustPanic("MatVecs short strided y", func() { simd.MatVecs(y[:5], val, val, x, 2, 2, 2, 4, 2) })
	mustPanic("MatVecs overlapping lines", func() { simd.MatVecs(y, val, val, x, 2, 2, 2, 1, 2) })
}

// BenchmarkKernelSEMGoVsAVX2 times each line kernel at the continuum
// workload's x-axis (four order-6 elements, 25 nodes, 23 Dirichlet modes),
// with the Go loops and with the AVX2 kernels: the Sᵀ mat-vec over the 156
// x-lines of one patch, the band product of k over one x-line, one sweep of
// a row of k over 25-long lines and the sweep of every row of d over
// 25-long lines; then one Navier-Stokes step of the workload's patch (4×2×2
// order-6 elements, second order in time).
func BenchmarkKernelSEMGoVsAVX2(b *testing.B) {
	ax := newSEMAxis(b, 4, 6, 1.5, false)
	md := ax.modes[1]
	rng := rand.New(rand.NewSource(6))
	const lines = 156
	n := ax.k.Rows
	mx := values(rng, lines*md.Nodes, 0, 0)
	my := make([]float64, lines*md.Modes)
	x, y := values(rng, n, 0, 0), values(rng, n, 0, 0)
	src := values(rng, n*n, 0, 0)
	rows := make([]float64, n*n)
	lo, hi := ax.k.RowPtr[6], ax.k.RowPtr[7] // a row shared by two elements
	kernels := []struct {
		name string
		f    func()
	}{
		{"MatVecs", func() { simd.MatVecs(my, md.ST, md.S, mx, md.Modes, md.Nodes, lines, md.Modes, md.Nodes) }},
		{"BandMulAdd", func() { simd.BandMulAdd(y, 1e-3, ax.k.RowPtr, ax.k.ColIdx, ax.k.Val, x) }},
		{"Sweep", func() { simd.Sweep(y, 1e-3, ax.k.Val[lo:hi], ax.k.ColIdx[lo:hi], src, 0, n) }},
		{"SweepRows", func() { simd.SweepRows(rows, 1, ax.d.RowPtr, ax.d.ColIdx, ax.d.Val, src, n) }},
		{"Step", workloadStep(b)},
	}
	for _, k := range kernels {
		b.Run(k.name+"/go", func(b *testing.B) {
			simd.GoKernels(func() {
				for i := 0; i < b.N; i++ {
					k.f()
				}
			})
		})
		b.Run(k.name+"/avx2", func(b *testing.B) {
			if !simd.HasAVX2() {
				b.Skip("no AVX2 kernels on this host")
			}
			for i := 0; i < b.N; i++ {
				k.f()
			}
		})
	}
}

// BenchmarkKernelContract times the fast-diagonalization solve's y and z
// contractions at the continuum workload's patch (order 6; x 23 Dirichlet
// modes, y 12 periodic nodes, z 13 nodes and 11 Dirichlet modes), Sᵀ then S
// along each axis as fdmPrec applies them, with the Go loop and with the
// AVX2 kernel.
func BenchmarkKernelContract(b *testing.B) {
	y := newSEMAxis(b, 2, 6, 1, true).modes[0]
	z := newSEMAxis(b, 2, 6, 1, false).modes[1]
	const mx = 23
	rng := rand.New(rand.NewSource(6))
	in := values(rng, mx*y.Nodes*z.Nodes, 0, 0)
	out := make([]float64, len(in))
	cases := []struct {
		name string
		f    func()
	}{
		{"y", func() {
			simd.Contract(out, in, y.ST, y.Modes, y.Nodes, mx, z.Nodes)
			simd.Contract(in, out, y.S, y.Nodes, y.Modes, mx, z.Nodes)
		}},
		{"z", func() {
			simd.Contract(out, in, z.ST, z.Modes, z.Nodes, mx*y.Modes, 1)
			simd.Contract(in, out, z.S, z.Nodes, z.Modes, mx*y.Modes, 1)
		}},
	}
	for _, c := range cases {
		b.Run(c.name+"/go", func(b *testing.B) {
			b.ReportAllocs()
			simd.GoKernels(func() {
				for i := 0; i < b.N; i++ {
					c.f()
				}
			})
		})
		b.Run(c.name+"/avx2", func(b *testing.B) {
			if !simd.HasAVX2() {
				b.Skip("no AVX2 kernels on this host")
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.f()
			}
		})
	}
}

// workloadStep returns one time step of a continuum-workload patch, warmed
// by three steps.
func workloadStep(b *testing.B) func() {
	g, err := nektar3d.NewGrid(4, 2, 2, 6, 1.5, 1, 1, false, true, false)
	if err != nil {
		b.Fatal(err)
	}
	s, err := nektar3d.NewSolver(g, 0.5, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	s.Order = 2
	s.SetInitial(func(x, y, z float64) (u, v, w float64) { return z * (1 - z), 0, 0 })
	if err := s.Run(3); err != nil {
		b.Fatal(err)
	}
	return func() {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// contractValues draws n values for the contraction kernel: normal values of
// magnitude 2^±scale, and a fraction zeros of them ±0 and as many again
// subnormal, so that signed zeros and gradual underflow reach the sums.
func contractValues(rng *rand.Rand, n, scale int, zeros float64) []float64 {
	v := values(rng, n, scale, zeros)
	for i := range v {
		if rng.Float64() < zeros {
			v[i] = math.Ldexp(rng.NormFloat64(), -1040-rng.Intn(30))
		}
	}
	return v
}

// checkContract runs Contract with the kernel and with the Go loop on random
// data and requires == outputs. dst carries five values past its end, which
// neither may touch.
func checkContract(t testing.TB, rng *rand.Rand, a []float64, rows, cols, inner, outer, scale int, zeros float64) {
	t.Helper()
	src := contractValues(rng, outer*cols*inner, scale, zeros)
	dst := values(rng, outer*rows*inner+5, scale, zeros)
	both(t, fmt.Sprintf("Contract %dx%d, inner %d, outer %d", rows, cols, inner, outer), dst, func(dst []float64) {
		simd.Contract(dst, src, a, rows, cols, inner, outer)
	})
}

// TestContractMatchesGo holds the contraction kernel to its Go loop with ==
// for every matrix of 1–16 rows and columns, inner lengths 1–9 (each lane
// count of a masked chunk), 23 and 276 (the continuum patch's y and z
// contractions) and one to three outer planes, on data with signed zeros
// and subnormals.
func TestContractMatchesGo(t *testing.T) {
	if !simd.HasAVX2() {
		t.Skip("no AVX2 kernels on this host: the Go loops are the kernels")
	}
	rng := rand.New(rand.NewSource(41))
	for rows := 1; rows <= 16; rows++ {
		for cols := 1; cols <= 16; cols++ {
			a := contractValues(rng, rows*cols, 4, 0.1)
			for _, inner := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 23, 276} {
				checkContract(t, rng, a, rows, cols, inner, 1+(rows+cols+inner)%3, 4, 0.1)
			}
		}
	}
}

// TestContractShapes checks Contract's edge shapes with either kernel: an
// empty contraction (no columns) clears its output, empty outputs are left
// alone, and a slice too short panics.
func TestContractShapes(t *testing.T) {
	dst := []float64{1, 2, 3, 4, 5}
	simd.Contract(dst, nil, nil, 2, 0, 2, 1)
	for i, v := range dst {
		if want := []float64{0, 0, 0, 0, 5}[i]; v != want || math.Signbit(v) {
			t.Fatalf("no columns: dst = %v, want [0 0 0 0 5]", dst)
		}
	}
	simd.Contract(dst, dst, dst, 0, 1, 2, 2)
	simd.Contract(dst, dst, dst, 1, 1, 0, 2)
	for _, f := range []func(){
		func() { simd.Contract(dst, make([]float64, 4), make([]float64, 3), 2, 2, 1, 2) },
		func() { simd.Contract(dst, make([]float64, 3), make([]float64, 4), 2, 2, 1, 2) },
		func() { simd.Contract(dst[:3], make([]float64, 4), make([]float64, 4), 2, 2, 1, 2) },
		func() { simd.Contract(dst, dst, dst, -1, 1, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("a short slice or negative dimension did not panic")
				}
			}()
			f()
		}()
	}
}
