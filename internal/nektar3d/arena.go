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
// worker pool, which writes to disjoint per-element ranges.
type arena struct {
	g             *Grid
	nq, nq3, nel  int
	dF, dT        []float64 // flat row-major D and Dᵀ (nq x nq)
	gids          []int32   // per-element local→global node map, element-major
	mask          []bool    // cached BoundaryMask
	elemOut       []float64 // phase-A stiffness outputs, nel*nq3, disjoint per element
	elemG         []float64 // phase-A gradient outputs, 3*nel*nq3 (gx | gy | gz)
	dxF, dyF, dzF []float64 // directional-derivative node fields for Divergence

	// Per-worker line scratch (index = worker id).
	wLoc  [][]float64 // nq3 gathered element values
	wLine [][]float64 // nq gathered input line
	wTmp  [][]float64 // nq differentiated/scaled line
	wOut  [][]float64 // nq output line for strided directions

	pool    work.Pool
	nw      int       // workers the prebuilt closures fan out over
	curX    []float64 // input field for the in-flight parallel apply
	curDir  int       // direction(s) the in-flight gradient computes
	stiffFn func(int) // prebuilt worker closures (rebuilt only when nw grows)
	gradFn  func(int)

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

// arena returns the grid's scratch arena, building it on first use.
func (g *Grid) arena() *arena {
	if g.ar == nil {
		g.ar = newArena(g)
	}
	return g.ar
}

func newArena(g *Grid) *arena {
	nq := g.P + 1
	nq3 := nq * nq * nq
	nel := g.Nex * g.Ney * g.Nez
	ar := &arena{g: g, nq: nq, nq3: nq3, nel: nel}

	d := g.Basis.D
	ar.dF = make([]float64, nq*nq)
	ar.dT = make([]float64, nq*nq)
	for r := 0; r < nq; r++ {
		for c := 0; c < nq; c++ {
			ar.dF[r*nq+c] = d[r][c]
			ar.dT[c*nq+r] = d[r][c]
		}
	}

	ar.gids = make([]int32, nel*nq3)
	e := 0
	g.forEachElement(func(ex, ey, ez int) {
		base := e * nq3
		l := 0
		for k := 0; k < nq; k++ {
			for j := 0; j < nq; j++ {
				for i := 0; i < nq; i++ {
					ar.gids[base+l] = int32(g.gid(ex, ey, ez, i, j, k))
					l++
				}
			}
		}
		e++
	})

	ar.mask = g.boundaryMaskInto(make([]bool, g.NumNodes()))

	ar.elemOut = make([]float64, nel*nq3)
	ar.elemG = make([]float64, 3*nel*nq3)
	ar.dxF = g.NewField()
	ar.dyF = g.NewField()
	ar.dzF = g.NewField()

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

	ar.ensureWorkers(g.workers())
	return ar
}

// ensureWorkers sizes the per-worker scratch and rebuilds the dispatch
// closures for nw workers. Called from the serial entry points only.
func (ar *arena) ensureWorkers(nw int) {
	if nw < 1 {
		nw = 1
	}
	if nw > ar.nel {
		nw = ar.nel
	}
	if ar.nw == nw && ar.stiffFn != nil {
		return
	}
	for len(ar.wLoc) < nw {
		ar.wLoc = append(ar.wLoc, make([]float64, ar.nq3))
		ar.wLine = append(ar.wLine, make([]float64, ar.nq))
		ar.wTmp = append(ar.wTmp, make([]float64, ar.nq))
		ar.wOut = append(ar.wOut, make([]float64, ar.nq))
	}
	ar.nw = nw
	ar.stiffFn = func(w int) {
		lo, hi := ar.chunk(w)
		for e := lo; e < hi; e++ {
			ar.stiffElem(e, ar.curX, ar.wLoc[w], ar.wLine[w], ar.wTmp[w], ar.wOut[w])
		}
	}
	ar.gradFn = func(w int) {
		lo, hi := ar.chunk(w)
		for e := lo; e < hi; e++ {
			ar.gradElem(e, ar.curX, ar.wLoc[w], ar.wLine[w], ar.wTmp[w], ar.curDir)
		}
	}
}

// chunk block-partitions the element range across the current worker count.
// The partition only controls which worker computes which element; outputs
// land in per-element ranges of elemOut/elemG, so results are independent of
// the partition (and hence of the worker count) bit for bit.
func (ar *arena) chunk(w int) (lo, hi int) {
	per := (ar.nel + ar.nw - 1) / ar.nw
	lo = w * per
	hi = lo + per
	if hi > ar.nel {
		hi = ar.nel
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
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
