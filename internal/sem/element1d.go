package sem

import (
	"fmt"
	"math"

	"nektarg/internal/linalg"
)

// Basis1D bundles the per-order data every spectral element of order P
// shares: GLL nodes, quadrature weights and the differentiation matrix.
type Basis1D struct {
	P       int // polynomial order; P+1 nodes
	Nodes   []float64
	Weights []float64
	D       [][]float64
}

// NewBasis1D builds the order-P GLL basis.
func NewBasis1D(p int) *Basis1D {
	if p < 1 {
		panic(fmt.Sprintf("sem: order must be >= 1, got %d", p))
	}
	nodes, weights := GLL(p + 1)
	return &Basis1D{P: p, Nodes: nodes, Weights: weights, D: DiffMatrix(nodes)}
}

// Mesh1D is a conforming mesh of 1D spectral elements on [x0, x1] with a
// shared basis, assembled with continuous (C0) connectivity.
type Mesh1D struct {
	Basis    *Basis1D
	Elements int
	X0, X1   float64
}

// NewMesh1D builds a uniform 1D spectral-element mesh.
func NewMesh1D(basis *Basis1D, elements int, x0, x1 float64) *Mesh1D {
	if elements < 1 || !(x1 > x0) {
		panic(fmt.Sprintf("sem: bad mesh (%d elements on [%v,%v])", elements, x0, x1))
	}
	return &Mesh1D{Basis: basis, Elements: elements, X0: x0, X1: x1}
}

// NumNodes returns the global C0 node count: Elements*P + 1.
func (m *Mesh1D) NumNodes() int { return m.Elements*m.Basis.P + 1 }

// NodeCoords returns the physical coordinates of the global nodes.
func (m *Mesh1D) NodeCoords() []float64 {
	h := (m.X1 - m.X0) / float64(m.Elements)
	out := make([]float64, m.NumNodes())
	for e := 0; e < m.Elements; e++ {
		for i, xi := range m.Basis.Nodes {
			out[e*m.Basis.P+i] = m.X0 + h*(float64(e)+(xi+1)/2)
		}
	}
	return out
}

// jac returns the element Jacobian dx/dxi = h/2.
func (m *Mesh1D) jac() float64 {
	return (m.X1 - m.X0) / float64(m.Elements) / 2
}

// AssembleHelmholtz assembles the C0 Galerkin matrix of the operator
// -u” + lambda*u on the mesh (natural/Neumann boundaries; callers impose
// Dirichlet rows afterwards). It also returns the assembled mass matrix used
// to build right-hand sides.
func (m *Mesh1D) AssembleHelmholtz(lambda float64) (helm, mass *linalg.CSR) {
	nq := m.Basis.P + 1
	j := m.jac()
	hc := linalg.NewCOO(m.NumNodes(), m.NumNodes())
	mc := linalg.NewCOO(m.NumNodes(), m.NumNodes())
	for e := 0; e < m.Elements; e++ {
		base := e * m.Basis.P
		for i := 0; i < nq; i++ {
			gi := base + i
			// Mass (diagonal under GLL collocation).
			mc.Add(gi, gi, m.Basis.Weights[i]*j)
			if lambda != 0 {
				hc.Add(gi, gi, lambda*m.Basis.Weights[i]*j)
			}
			for k := 0; k < nq; k++ {
				hc.Add(gi, base+k, m.stiffEntry(i, k, j))
			}
		}
	}
	return hc.ToCSR(), mc.ToCSR()
}

// stiffEntry returns the element stiffness entry K_ic = Σ_q w_q D_qi D_qc / j
// of basis functions i and c on an element of Jacobian j.
func (m *Mesh1D) stiffEntry(i, c int, j float64) float64 {
	w, d := m.Basis.Weights, m.Basis.D
	var s float64
	for q := range w {
		s += w[q] * d[q][i] * d[q][c]
	}
	return s / j
}

// Factors returns the 1D factors of the operators on a tensor-product box of
// such meshes: the assembled C0 stiffness k (AssembleHelmholtz(0)'s), the
// diagonal mass, and the collocation derivative d, each element's D/J rows
// averaged over the elements sharing a node. periodic identifies the last
// node with the first (Elements*P nodes); this is the one place the seam is
// wrapped.
func (m *Mesh1D) Factors(periodic bool) (k, d *linalg.CSR, mass []float64) {
	p := m.Basis.P
	nodes := m.NumNodes()
	if periodic {
		nodes--
	}
	w, dm := m.Basis.Weights, m.Basis.D
	j := m.jac()
	kc := linalg.NewCOO(nodes, nodes)
	dc := linalg.NewCOO(nodes, nodes)
	mass = make([]float64, nodes)
	shared := make([]float64, nodes)
	for e := 0; e < m.Elements; e++ {
		for i := 0; i <= p; i++ {
			gi := (e*p + i) % nodes
			mass[gi] += w[i] * j
			shared[gi]++
			for c := 0; c <= p; c++ {
				gc := (e*p + c) % nodes
				kc.Add(gi, gc, m.stiffEntry(i, c, j))
				dc.Add(gi, gc, dm[i][c]/j)
			}
		}
	}
	d = dc.ToCSR()
	for r := 0; r < nodes; r++ {
		for q := d.RowPtr[r]; q < d.RowPtr[r+1]; q++ {
			d.Val[q] /= shared[r]
		}
	}
	return kc.ToCSR(), d, mass
}

// Modes1D is the generalized eigen-decomposition K S = M S Λ of a mesh's C0
// stiffness against its diagonal mass, normalised SᵀMS = I: in the basis S
// both matrices are diagonal, which is what lets a tensor-product Helmholtz
// operator λM + K on a box be inverted one axis at a time (fast
// diagonalization). S and its transpose are stored flat row-major so line
// contractions can run through simd.MatVec.
type Modes1D struct {
	Nodes, Modes int
	Lambda       []float64 // Modes eigenvalues, descending
	S            []float64 // Nodes×Modes: S[i*Modes+m]
	ST           []float64 // Modes×Nodes
}

// Modes diagonalizes the mesh's stiffness/mass pair (Factors(periodic)).
// periodic identifies the last node with the first (Nodes = Elements*P);
// dirichlet drops the two end nodes from the eigenproblem (their rows of S
// are zero, Modes = Nodes-2) and is ignored on a periodic mesh, which has no
// ends. Without Dirichlet ends the stiffness annihilates constants; that mode
// is returned exactly — eigenvalue 0, constant vector — rather than to
// rounding, so callers can pseudo-invert it by testing for zero.
func (m *Mesh1D) Modes(periodic, dirichlet bool) (*Modes1D, error) {
	k1, _, m1 := m.Factors(periodic)
	nodes := len(m1)
	if periodic {
		dirichlet = false
	}
	first, modes := 0, nodes
	if dirichlet {
		first, modes = 1, nodes-2
	}
	// A = M^{-1/2} K M^{-1/2} on the kept nodes, symmetrized against the
	// assembly's rounding.
	a := linalg.NewDense(modes, modes)
	for i := 0; i < modes; i++ {
		for j := 0; j < modes; j++ {
			kij := (k1.At(first+i, first+j) + k1.At(first+j, first+i)) / 2
			a.Set(i, j, kij/math.Sqrt(m1[first+i]*m1[first+j]))
		}
	}
	lam, q, err := linalg.EigenSym(a)
	if err != nil {
		return nil, fmt.Errorf("sem: 1D mode decomposition: %w", err)
	}
	md := &Modes1D{
		Nodes: nodes, Modes: modes, Lambda: lam,
		S:  make([]float64, nodes*modes),
		ST: make([]float64, modes*nodes),
	}
	for i := 0; i < modes; i++ {
		for k := 0; k < modes; k++ {
			md.S[(first+i)*modes+k] = q.At(i, k) / math.Sqrt(m1[first+i])
		}
	}
	if !dirichlet {
		var total float64
		for _, v := range m1 {
			total += v
		}
		lam[modes-1] = 0
		for i := 0; i < nodes; i++ {
			md.S[i*modes+modes-1] = 1 / math.Sqrt(total)
		}
	}
	for i := 0; i < nodes; i++ {
		for k := 0; k < modes; k++ {
			md.ST[k*nodes+i] = md.S[i*modes+k]
		}
	}
	return md, nil
}

// SolveHelmholtzDirichlet solves -u” + lambda*u = f on the mesh with
// Dirichlet values uL, uR at the endpoints, where f is sampled at the global
// nodes. Returns the nodal solution.
func (m *Mesh1D) SolveHelmholtzDirichlet(lambda float64, f []float64, uL, uR float64) ([]float64, error) {
	n := m.NumNodes()
	if len(f) != n {
		panic(fmt.Sprintf("sem: f has %d values for %d nodes", len(f), n))
	}
	helm, mass := m.AssembleHelmholtz(lambda)
	// RHS = M f.
	b := make([]float64, n)
	mass.MulVec(b, f)

	// Impose Dirichlet by elimination: move known-value columns to RHS,
	// then solve the interior system.
	interior := make([]int, 0, n-2)
	for i := 1; i < n-1; i++ {
		interior = append(interior, i)
	}
	idx := make(map[int]int, len(interior))
	for k, i := range interior {
		idx[i] = k
	}
	ac := linalg.NewCOO(len(interior), len(interior))
	bi := make([]float64, len(interior))
	bc := map[int]float64{0: uL, n - 1: uR}
	for k, i := range interior {
		bi[k] = b[i]
		for p := helm.RowPtr[i]; p < helm.RowPtr[i+1]; p++ {
			jcol := helm.ColIdx[p]
			v := helm.Val[p]
			if g, isBC := bc[jcol]; isBC {
				bi[k] -= v * g
			} else {
				ac.Add(k, idx[jcol], v)
			}
		}
	}
	a := ac.ToCSR()
	x := make([]float64, len(interior))
	res, err := linalg.CG(linalg.CSROperator{M: a}, x, bi, linalg.NewJacobiPrec(a.Diagonal()), 1e-12, 20*n)
	if err != nil {
		return nil, err
	}
	if !res.Converged {
		return nil, fmt.Errorf("sem: Helmholtz CG stalled at residual %g", res.Residual)
	}
	u := make([]float64, n)
	u[0], u[n-1] = uL, uR
	for k, i := range interior {
		u[i] = x[k]
	}
	return u, nil
}

// L2Error computes the quadrature-weighted L2 distance between a nodal field
// and a reference function on the mesh.
func (m *Mesh1D) L2Error(u []float64, exact func(x float64) float64) float64 {
	coords := m.NodeCoords()
	j := m.jac()
	var s float64
	for e := 0; e < m.Elements; e++ {
		base := e * m.Basis.P
		for i, w := range m.Basis.Weights {
			d := u[base+i] - exact(coords[base+i])
			s += w * j * d * d
		}
	}
	return math.Sqrt(s)
}
