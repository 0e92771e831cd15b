// Package nektar3d implements the continuum solver of the paper: a
// high-order spectral-element incompressible Navier-Stokes solver with
// semi-implicit (velocity-correction) time stepping, conjugate-gradient
// Helmholtz and Poisson solves, and the interface machinery for multi-patch
// coupling. Elements are axis-aligned hexahedra with tensor-product
// Gauss-Lobatto-Legendre bases of arbitrary order P; curved patient-specific
// geometry is replaced by parameterized box/channel domains (see DESIGN.md
// substitutions) while keeping the full numerical pipeline: collocation
// derivatives, C0 direct stiffness summation, preconditioned CG, splitting
// scheme and patch interface conditions.
package nektar3d

import (
	"fmt"

	"nektarg/internal/linalg"
	"nektarg/internal/sem"
)

// Grid is a structured mesh of Nex x Ney x Nez spectral elements of order P
// on the box [0,Lx] x [0,Ly] x [0,Lz], with optional periodicity per
// direction. Non-periodic directions carry Dirichlet velocity boundaries and
// homogeneous Neumann pressure boundaries.
type Grid struct {
	Nex, Ney, Nez    int
	P                int
	Lx, Ly, Lz       float64
	PerX, PerY, PerZ bool

	Basis *sem.Basis1D

	// Node counts per direction (periodic dims drop the duplicate node).
	Nx, Ny, Nz int
	// Element Jacobians dx/dxi per direction (affine mapping).
	Jx, Jy, Jz float64

	// Parallel is the intra-grid worker count for the operators, which are
	// tiled over z-planes of their output: <=1 runs serial (the default),
	// n>1 uses exactly n workers, negative uses GOMAXPROCS. Results are
	// bit-identical for every setting (each node is written by one worker,
	// in a fixed order). Set it before or between solves, not during one.
	Parallel int

	// ax holds the per-axis 1D factors (x, y, z) every operator is built
	// from; massDiag is the assembled (diagonal) mass matrix Mx⊗My⊗Mz.
	ax       [3]axis
	massDiag []float64
	// X, Y, Z are the 1D node coordinate arrays.
	X, Y, Z []float64

	// ar is the lazily built operator scratch arena (see arena.go). Pure
	// derived data and workspace: never checkpointed, rebuilt on demand.
	ar *arena
}

// axis is one direction's 1D mesh and its factors (sem.Mesh1D.Factors): C0
// stiffness k, averaged collocation derivative d and diagonal mass m,
// periodic-wrapped when per.
type axis struct {
	mesh *sem.Mesh1D
	per  bool
	k, d *linalg.CSR
	m    []float64
}

// NewGrid builds a grid and precomputes its 1D factors and mass.
func NewGrid(nex, ney, nez, p int, lx, ly, lz float64, perX, perY, perZ bool) *Grid {
	if nex < 1 || ney < 1 || nez < 1 || p < 2 {
		panic(fmt.Sprintf("nektar3d: bad grid %dx%dx%d P=%d", nex, ney, nez, p))
	}
	if lx <= 0 || ly <= 0 || lz <= 0 {
		panic(fmt.Sprintf("nektar3d: bad box %v %v %v", lx, ly, lz))
	}
	g := &Grid{
		Nex: nex, Ney: ney, Nez: nez, P: p,
		Lx: lx, Ly: ly, Lz: lz,
		PerX: perX, PerY: perY, PerZ: perZ,
		Basis: sem.NewBasis1D(p),
	}
	g.Nx = nex * p
	if !perX {
		g.Nx++
	}
	g.Ny = ney * p
	if !perY {
		g.Ny++
	}
	g.Nz = nez * p
	if !perZ {
		g.Nz++
	}
	g.Jx = lx / float64(nex) / 2
	g.Jy = ly / float64(ney) / 2
	g.Jz = lz / float64(nez) / 2

	for d, a := range [3]struct {
		ne  int
		l   float64
		per bool
	}{{nex, lx, perX}, {ney, ly, perY}, {nez, lz, perZ}} {
		ax := &g.ax[d]
		ax.mesh, ax.per = sem.NewMesh1D(g.Basis, a.ne, 0, a.l), a.per
		ax.k, ax.d, ax.m = ax.mesh.Factors(a.per)
	}
	// A periodic axis drops its seam duplicate, the last node.
	g.X = g.ax[0].mesh.NodeCoords()[:g.Nx]
	g.Y = g.ax[1].mesh.NodeCoords()[:g.Ny]
	g.Z = g.ax[2].mesh.NodeCoords()[:g.Nz]
	g.massDiag = make([]float64, 0, g.NumNodes())
	for _, mz := range g.ax[2].m {
		for _, my := range g.ax[1].m {
			for _, mx := range g.ax[0].m {
				g.massDiag = append(g.massDiag, mx*my*mz)
			}
		}
	}
	return g
}

// NumNodes returns the global node count.
func (g *Grid) NumNodes() int { return g.Nx * g.Ny * g.Nz }

// Idx maps (i,j,k) node indices to the flat array offset.
func (g *Grid) Idx(i, j, k int) int { return i + g.Nx*(j+g.Ny*k) }

// gid maps element-local indices to a global node, wrapping periodic seams.
func (g *Grid) gid(ex, ey, ez, i, j, k int) int {
	gi := ex*g.P + i
	gj := ey*g.P + j
	gk := ez*g.P + k
	if g.PerX && gi == g.Nx {
		gi = 0
	}
	if g.PerY && gj == g.Ny {
		gj = 0
	}
	if g.PerZ && gk == g.Nz {
		gk = 0
	}
	return g.Idx(gi, gj, gk)
}

// NewField allocates a zero nodal field on the grid.
func (g *Grid) NewField() []float64 { return make([]float64, g.NumNodes()) }

// FillField samples fn(x,y,z) at every node.
func (g *Grid) FillField(f []float64, fn func(x, y, z float64) float64) {
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				f[g.Idx(i, j, k)] = fn(g.X[i], g.Y[j], g.Z[k])
			}
		}
	}
}

// BoundaryMask marks the Dirichlet nodes: every node on a non-periodic
// face.
func (g *Grid) BoundaryMask() []bool {
	return g.boundaryMaskInto(make([]bool, g.NumNodes()))
}

// boundaryMaskInto marks the Dirichlet nodes into m.
func (g *Grid) boundaryMaskInto(m []bool) []bool {
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				if (!g.PerX && (i == 0 || i == g.Nx-1)) ||
					(!g.PerY && (j == 0 || j == g.Ny-1)) ||
					(!g.PerZ && (k == 0 || k == g.Nz-1)) {
					m[g.Idx(i, j, k)] = true
				}
			}
		}
	}
	return m
}

// MassDiag exposes the assembled diagonal mass matrix.
func (g *Grid) MassDiag() []float64 { return g.massDiag }

// Integrate returns the mass-weighted integral of a nodal field over the
// domain.
func (g *Grid) Integrate(f []float64) float64 {
	var s float64
	for i, v := range f {
		s += g.massDiag[i] * v
	}
	return s
}

// Mean returns the volume average of a field.
func (g *Grid) Mean(f []float64) float64 {
	return g.Integrate(f) / (g.Lx * g.Ly * g.Lz)
}
