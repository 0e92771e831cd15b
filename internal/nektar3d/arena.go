package nektar3d

import (
	"runtime"

	"nektarg/internal/linalg"
	"nektarg/internal/work"
)

// arena is the grid-owned scratch pool for the hot operator path. Everything
// here is derived data or reusable workspace: rebuildable from the Grid,
// carrying no simulation state, and therefore excluded from checkpoint
// capture by construction (state.go serializes named Solver fields only).
//
// Ownership and reentrancy contract (DESIGN.md §14): the arena belongs to
// its Grid, is built lazily on first operator call, and serves ONE operator
// apply / solve at a time. Grid operators are not reentrant — two goroutines
// must not call ApplyStiffness/GradientInto/solve methods on the same Grid
// concurrently (each Metasolver patch owns its own Grid, so patch-level
// concurrency is unaffected). Intra-apply parallelism is the arena's own
// worker pool, each worker writing its own z-planes of the output.
type arena struct {
	g             *Grid
	mask          []bool    // cached BoundaryMask
	mx            []float64 // Mx ⊙ x, the stiffness apply's one scratch field
	dxF, dyF, dzF []float64 // directional-derivative node fields for Divergence

	// The in-flight tiled pass (see tiled): what it computes, its output
	// fields and its input, and the prebuilt worker closure that runs it.
	job    job
	dst    [3][]float64
	src    []float64
	nw     int
	tileFn func(int)

	pool work.Pool

	// Solve scratch: lifting field, RHS, interior iterate, CG workspace, the
	// two fast-diagonalization preconditioners (fdm.go; natural boundaries
	// and Dirichlet mask, one scratch pair between them) and prebuilt
	// operator values. The ops and the mean-free wrapper are stored in
	// interface-typed fields once so per-solve interface conversions never
	// allocate; lambda is set per solve.
	ug, b, x []float64
	cgws     linalg.CGWorkspace
	nat, dir *fdmPrec
	mfIface  linalg.Preconditioner // meanFreePrec{inner: nat}
	op       *helmholtzOp          // unmasked (lifting applies)
	mop      *helmholtzOp          // masked (CG operator)
	opIface  linalg.Operator
	mopIface linalg.Operator
}

// job names what a tiled pass computes: the derivative along axis 0, 1 or 2
// into dst[0], all three into dst, or the stiffness apply into dst[0].
type job int8

const (
	jobGrad  job = 3
	jobStiff job = 4
)

// arena returns the grid's scratch arena, building it on first use.
func (g *Grid) arena() *arena {
	if g.ar == nil {
		g.ar = newArena(g)
	}
	return g.ar
}

func newArena(g *Grid) *arena {
	ar := &arena{g: g}
	ar.mask = g.boundaryMaskInto(make([]bool, g.NumNodes()))
	ar.mx = g.NewField()
	ar.dxF = g.NewField()
	ar.dyF = g.NewField()
	ar.dzF = g.NewField()
	ar.tileFn = ar.tile

	n := g.NumNodes()
	ar.ug = make([]float64, n)
	ar.b = make([]float64, n)
	ar.x = make([]float64, n)
	ar.nat, ar.dir = newFDM(g, ar.mask)
	ar.mfIface = meanFreePrec{inner: ar.nat}
	ar.op = &helmholtzOp{g: g}
	ar.mop = &helmholtzOp{g: g, mask: ar.mask}
	ar.opIface = ar.op
	ar.mopIface = ar.mop
	return ar
}

// tiled runs job over the z-planes of the output, split into one contiguous
// tile per worker. Each output node is written by exactly one worker, in
// the same order whatever the split, so the result is the same bits for
// every worker count. Outputs must not alias the input.
func (ar *arena) tiled(j job, src []float64, dst ...[]float64) {
	ar.job, ar.src = j, src
	copy(ar.dst[:], dst)
	ar.nw = min(ar.g.workers(), ar.g.Nz)
	ar.pool.Run(ar.nw, ar.tileFn)
	ar.src, ar.dst = nil, [3][]float64{}
}

// tile is worker w's share of the in-flight pass.
func (ar *arena) tile(w int) {
	nz := ar.g.Nz
	per := (nz + ar.nw - 1) / ar.nw
	for k := w * per; k < min((w+1)*per, nz); k++ {
		switch ar.job {
		case jobStiff:
			ar.stiffPlane(ar.dst[0], ar.src, k)
		case jobGrad:
			for d, out := range ar.dst {
				ar.derivPlane(out, ar.src, d, k)
			}
		default:
			ar.derivPlane(ar.dst[0], ar.src, int(ar.job), k)
		}
	}
}

// workers resolves the grid's Parallel knob to an effective worker count:
// <=1 serial, n>1 exactly n, negative all of GOMAXPROCS.
func (g *Grid) workers() int {
	p := g.Parallel
	if p < 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p < 1 {
		p = 1
	}
	return p
}

// Workers reports the effective intra-grid worker count (for telemetry).
func (g *Grid) Workers() int { return g.workers() }
