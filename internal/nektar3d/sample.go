package nektar3d

import (
	"fmt"
	"math"

	"nektarg/internal/geometry"
	"nektarg/internal/sem"
)

// locate1D finds the element index and reference coordinate xi in [-1,1] of
// physical coordinate x along a direction of ne elements spanning [0, l].
// Periodic directions wrap; non-periodic ones clamp to the boundary.
func locate1D(x, l float64, ne int, periodic bool) (elem int, xi float64) {
	if periodic {
		x = math.Mod(x, l)
		if x < 0 {
			x += l
		}
	} else if x < 0 {
		x = 0
	} else if x > l {
		x = l
	}
	h := l / float64(ne)
	elem = int(x / h)
	if elem >= ne {
		elem = ne - 1
	}
	xi = 2*(x-float64(elem)*h)/h - 1
	return elem, xi
}

// Sample evaluates a nodal field at an arbitrary physical point by
// tensor-product Lagrange interpolation within the containing element. This
// is the operation behind "the velocity field computed by the continuum
// solver is interpolated onto the predefined coordinates and ... transferred
// to the atomistic solver".
func (g *Grid) Sample(f []float64, p geometry.Vec3) float64 {
	ex, xi := locate1D(p.X, g.Lx, g.Nex, g.PerX)
	ey, eta := locate1D(p.Y, g.Ly, g.Ney, g.PerY)
	ez, zeta := locate1D(p.Z, g.Lz, g.Nez, g.PerZ)
	nq := g.P + 1

	// The three weight vectors live on the stack up to order 15; the
	// coupling samples thousands of points per exchange period.
	var stack [3 * 16]float64
	wts := stack[:]
	if 3*nq > len(wts) {
		wts = make([]float64, 3*nq)
	}
	lx, ly, lz := wts[:nq], wts[nq:2*nq], wts[2*nq:3*nq]
	lagrangeWeights(g.Basis, xi, lx)
	lagrangeWeights(g.Basis, eta, ly)
	lagrangeWeights(g.Basis, zeta, lz)

	var s float64
	for k := 0; k < nq; k++ {
		if lz[k] == 0 {
			continue
		}
		for j := 0; j < nq; j++ {
			if ly[j] == 0 {
				continue
			}
			ljk := ly[j] * lz[k]
			for i := 0; i < nq; i++ {
				if lx[i] == 0 {
					continue
				}
				s += lx[i] * ljk * f[g.gid(ex, ey, ez, i, j, k)]
			}
		}
	}
	return s
}

// SampleVelocity evaluates all three velocity components at a point.
func (g *Grid) SampleVelocity(u, v, w []float64, p geometry.Vec3) (float64, float64, float64) {
	return g.Sample(u, p), g.Sample(v, p), g.Sample(w, p)
}

// lagrangeWeights fills out, of length nq, with the values of the nq Lagrange
// cardinal functions of the basis at reference coordinate xi.
func lagrangeWeights(b *sem.Basis1D, xi float64, out []float64) {
	nq := b.P + 1
	for i := 0; i < nq; i++ {
		if xi == b.Nodes[i] {
			clear(out)
			out[i] = 1
			return
		}
	}
	// Barycentric form.
	var den float64
	for i := 0; i < nq; i++ {
		w := 1.0
		for j := 0; j < nq; j++ {
			if j != i {
				w /= b.Nodes[i] - b.Nodes[j]
			}
		}
		out[i] = w / (xi - b.Nodes[i])
		den += out[i]
	}
	for i := 0; i < nq; i++ {
		out[i] /= den
	}
}

// Contains reports whether a physical point lies inside the grid box.
func (g *Grid) Contains(p geometry.Vec3) bool {
	inx := g.PerX || (p.X >= 0 && p.X <= g.Lx)
	iny := g.PerY || (p.Y >= 0 && p.Y <= g.Ly)
	inz := g.PerZ || (p.Z >= 0 && p.Z <= g.Lz)
	return inx && iny && inz
}

// FaceTrace extracts the nodal values of a field on one boundary face
// ("x0", "x1", "y0", "y1", "z0", "z1"), flattened in the face's natural
// (fast-varying first) order. Patch coupling ships these traces between L4
// roots.
func (g *Grid) FaceTrace(f []float64, face string) []float64 {
	var out []float64
	switch face {
	case "x0", "x1":
		i := 0
		if face == "x1" {
			i = g.Nx - 1
		}
		for k := 0; k < g.Nz; k++ {
			for j := 0; j < g.Ny; j++ {
				out = append(out, f[g.Idx(i, j, k)])
			}
		}
	case "y0", "y1":
		j := 0
		if face == "y1" {
			j = g.Ny - 1
		}
		for k := 0; k < g.Nz; k++ {
			for i := 0; i < g.Nx; i++ {
				out = append(out, f[g.Idx(i, j, k)])
			}
		}
	case "z0", "z1":
		k := 0
		if face == "z1" {
			k = g.Nz - 1
		}
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				out = append(out, f[g.Idx(i, j, k)])
			}
		}
	default:
		panic(fmt.Sprintf("nektar3d: unknown face %q", face))
	}
	return out
}

// mass1D assembles the lumped 1D quadrature weights along one direction
// (0=x, 1=y, 2=z): weight w_i * J summed over the elements sharing each
// node.
func (g *Grid) mass1D(dim int) []float64 {
	var ne, nNodes int
	var jac float64
	var periodic bool
	switch dim {
	case 0:
		ne, nNodes, jac, periodic = g.Nex, g.Nx, g.Jx, g.PerX
	case 1:
		ne, nNodes, jac, periodic = g.Ney, g.Ny, g.Jy, g.PerY
	default:
		ne, nNodes, jac, periodic = g.Nez, g.Nz, g.Jz, g.PerZ
	}
	out := make([]float64, nNodes)
	for e := 0; e < ne; e++ {
		for i := 0; i <= g.P; i++ {
			gi := e*g.P + i
			if periodic && gi == nNodes {
				gi = 0
			}
			out[gi] += g.Basis.Weights[i] * jac
		}
	}
	return out
}

// FaceQuadrature returns the 2D quadrature weights of a boundary face's
// nodes, in FaceTrace order: integrating a traced field against them yields
// the exact surface integral for the tensor-product basis.
func (g *Grid) FaceQuadrature(face string) []float64 {
	var w1, w2 []float64
	switch face {
	case "x0", "x1":
		w1, w2 = g.mass1D(1), g.mass1D(2) // (y fast, z slow)
	case "y0", "y1":
		w1, w2 = g.mass1D(0), g.mass1D(2) // (x fast, z slow)
	case "z0", "z1":
		w1, w2 = g.mass1D(0), g.mass1D(1) // (x fast, y slow)
	default:
		panic(fmt.Sprintf("nektar3d: unknown face %q", face))
	}
	out := make([]float64, 0, len(w1)*len(w2))
	for _, b := range w2 {
		for _, a := range w1 {
			out = append(out, a*b)
		}
	}
	return out
}

// FacePoints returns the physical coordinates of the nodes on a boundary
// face, in the same order as FaceTrace.
func (g *Grid) FacePoints(face string) []geometry.Vec3 {
	var out []geometry.Vec3
	switch face {
	case "x0", "x1":
		x := 0.0
		if face == "x1" {
			x = g.Lx
		}
		for k := 0; k < g.Nz; k++ {
			for j := 0; j < g.Ny; j++ {
				out = append(out, geometry.Vec3{X: x, Y: g.Y[j], Z: g.Z[k]})
			}
		}
	case "y0", "y1":
		y := 0.0
		if face == "y1" {
			y = g.Ly
		}
		for k := 0; k < g.Nz; k++ {
			for i := 0; i < g.Nx; i++ {
				out = append(out, geometry.Vec3{X: g.X[i], Y: y, Z: g.Z[k]})
			}
		}
	case "z0", "z1":
		z := 0.0
		if face == "z1" {
			z = g.Lz
		}
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				out = append(out, geometry.Vec3{X: g.X[i], Y: g.Y[j], Z: z})
			}
		}
	default:
		panic(fmt.Sprintf("nektar3d: unknown face %q", face))
	}
	return out
}
