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
	xi = 2*(x-float64(float64(elem)*h))/h - 1
	return elem, xi
}

// SampleVelocity evaluates the velocity (u, v, w) at an arbitrary physical
// point by tensor-product Lagrange interpolation within the containing
// element. This is the operation behind "the velocity field computed by the
// continuum solver is interpolated onto the predefined coordinates and ...
// transferred to the atomistic solver". The point is located and its
// weights are built once; each component sums its element's nodes
// z-outermost, skipping zero weights, with the bits of a one-field
// interpolation (TestSampleVelocityMatchesSample).
func (g *Grid) SampleVelocity(u, v, w []float64, p geometry.Vec3) (su, sv, sw float64) {
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
	g.lagrangeWeights(xi, lx)
	g.lagrangeWeights(eta, ly)
	g.lagrangeWeights(zeta, lz)

	// Node i of an x-line sits at the line's first node + i, except across
	// a periodic seam, which wraps it back by Nx.
	seam := -1
	if g.PerX {
		seam = g.Nx - ex*g.P
	}
	for k := range lz {
		if lz[k] == 0 {
			continue
		}
		for j := range ly {
			if ly[j] == 0 {
				continue
			}
			ljk := ly[j] * lz[k]
			row := g.gid(ex, ey, ez, 0, j, k)
			for i := range lx {
				if lx[i] == 0 {
					continue
				}
				c, n := lx[i]*ljk, row+i
				if i == seam {
					n -= g.Nx
				}
				su += float64(c * u[n])
				sv += float64(c * v[n])
				sw += float64(c * w[n])
			}
		}
	}
	return su, sv, sw
}

// lagrangeWeights fills out, of length P+1, with the values of the Lagrange
// cardinal functions of the basis at reference coordinate xi.
func (g *Grid) lagrangeWeights(xi float64, out []float64) {
	nodes := g.Basis.Nodes
	for i, x := range nodes {
		if xi == x {
			clear(out)
			out[i] = 1
			return
		}
	}
	// Barycentric form.
	var den float64
	for i, x := range nodes {
		out[i] = g.bary[i] / (xi - x)
		den += out[i]
	}
	for i := range out {
		out[i] /= den
	}
}

// baryWeights returns the barycentric constants 1/Π_{j≠i}(x_i - x_j) of
// the basis nodes, divided out in j order (NewGrid, for lagrangeWeights).
func baryWeights(b *sem.Basis1D) []float64 {
	w := make([]float64, len(b.Nodes))
	for i, x := range b.Nodes {
		w[i] = 1
		for j, y := range b.Nodes {
			if j != i {
				w[i] /= x - y
			}
		}
	}
	return w
}

// Contains reports whether a physical point lies inside the grid box.
func (g *Grid) Contains(p geometry.Vec3) bool {
	inx := g.PerX || (p.X >= 0 && p.X <= g.Lx)
	iny := g.PerY || (p.Y >= 0 && p.Y <= g.Ly)
	inz := g.PerZ || (p.Z >= 0 && p.Z <= g.Lz)
	return inx && iny && inz
}

// ParseFace decodes a boundary face name ("x0", "x1", "y0", "y1", "z0",
// "z1") into its axis (0=x, 1=y, 2=z) and whether it is the high side of the
// box. It is the one reading of a face name.
func ParseFace(face string) (axis int, high bool, err error) {
	if len(face) != 2 || face[0] < 'x' || face[0] > 'z' || (face[1] != '0' && face[1] != '1') {
		return 0, false, fmt.Errorf("unknown face %q (want x0, x1, y0, y1, z0 or z1)", face)
	}
	return int(face[0] - 'x'), face[1] == '1', nil
}

// faceAxis decodes a face name its caller has already validated.
func faceAxis(face string) (axis int, high bool) {
	axis, high, err := ParseFace(face)
	if err != nil {
		panic("nektar3d: " + err.Error())
	}
	return axis, high
}

// faceNodes visits the (i, j, k) node indices of the face normal to axis in
// the face's natural order: of the two in-face axes the lower one varies
// fastest.
func (g *Grid) faceNodes(axis int, high bool, visit func(n [3]int)) {
	dims := [3]int{g.Nx, g.Ny, g.Nz}
	fast, slow := (axis+1)%3, (axis+2)%3
	if fast > slow {
		fast, slow = slow, fast
	}
	var n [3]int
	if high {
		n[axis] = dims[axis] - 1
	}
	for n[slow] = 0; n[slow] < dims[slow]; n[slow]++ {
		for n[fast] = 0; n[fast] < dims[fast]; n[fast]++ {
			visit(n)
		}
	}
}

// FaceNodes returns the node indices of one boundary face ("x0", "x1",
// "y0", "y1", "z0", "z1") in the face's natural (fast-varying first) order,
// the order of FacePoints and FaceQuadrature: a field's trace on the face is
// f[n] for n in it. It refuses an unknown name and a face normal to a
// periodic axis, which is no boundary.
func (g *Grid) FaceNodes(face string) ([]int, error) {
	axis, high, err := ParseFace(face)
	if err != nil {
		return nil, fmt.Errorf("nektar3d: %w", err)
	}
	if [3]bool{g.PerX, g.PerY, g.PerZ}[axis] {
		return nil, fmt.Errorf("nektar3d: face %s: the grid is periodic along %c", face, 'x'+axis)
	}
	var out []int
	g.faceNodes(axis, high, func(n [3]int) {
		out = append(out, g.Idx(n[0], n[1], n[2]))
	})
	return out, nil
}

// mass1D assembles the lumped 1D quadrature weights along one direction
// (0=x, 1=y, 2=z): weight w_i * J summed over the elements sharing each
// node.
func (g *Grid) mass1D(dim int) []float64 {
	ne, nNodes := [3]int{g.Nex, g.Ney, g.Nez}[dim], [3]int{g.Nx, g.Ny, g.Nz}[dim]
	jac, periodic := [3]float64{g.Jx, g.Jy, g.Jz}[dim], [3]bool{g.PerX, g.PerY, g.PerZ}[dim]
	out := make([]float64, nNodes)
	for e := 0; e < ne; e++ {
		for i := 0; i <= g.P; i++ {
			gi := e*g.P + i
			if periodic && gi == nNodes {
				gi = 0
			}
			out[gi] += float64(g.Basis.Weights[i] * jac)
		}
	}
	return out
}

// FaceQuadrature returns the 2D quadrature weights of a boundary face's
// nodes, in FaceNodes order: integrating a traced field against them yields
// the exact surface integral for the tensor-product basis.
func (g *Grid) FaceQuadrature(face string) []float64 {
	axis, high := faceAxis(face)
	var w [3][]float64
	for d := range w {
		if d != axis {
			w[d] = g.mass1D(d)
		}
	}
	var out []float64
	g.faceNodes(axis, high, func(n [3]int) {
		q := 1.0
		for d := range w {
			if d != axis {
				q *= w[d][n[d]]
			}
		}
		out = append(out, q)
	})
	return out
}

// FacePoints returns the physical coordinates of the nodes on a boundary
// face, in FaceNodes order.
func (g *Grid) FacePoints(face string) []geometry.Vec3 {
	axis, high := faceAxis(face)
	// The face sits on the box boundary, also where a periodic axis dropped
	// its last node.
	var at float64
	if high {
		at = [3]float64{g.Lx, g.Ly, g.Lz}[axis]
	}
	coords := [3][]float64{g.X, g.Y, g.Z}
	var out []geometry.Vec3
	g.faceNodes(axis, high, func(n [3]int) {
		var p [3]float64
		for d := range p {
			p[d] = coords[d][n[d]]
		}
		p[axis] = at
		out = append(out, geometry.Vec3{X: p[0], Y: p[1], Z: p[2]})
	})
	return out
}
