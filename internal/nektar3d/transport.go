package nektar3d

import (
	"fmt"

	"nektarg/internal/linalg"
)

// Transport advances a passive scalar (oxygen concentration — the intro's
// "blood flow patterns and oxygen transport within the brain") carried by a
// Solver's velocity field:
//
//	∂c/∂t + u·∇c = D ∇²c + s
//
// with the same semi-implicit splitting as the momentum equations: explicit
// advection and source, implicit diffusion. Walls are insulated (natural,
// zero-flux) when BC is nil, or held at Dirichlet values otherwise.
type Transport struct {
	S *Solver
	// D is the scalar diffusivity.
	D float64
	// C is the nodal concentration field.
	C []float64
	// BC supplies Dirichlet boundary values; nil = insulated walls.
	BC func(t, x, y, z float64) float64
	// Source supplies a volumetric source/sink; nil = none.
	Source func(t, x, y, z float64) float64

	Tol     float64
	MaxIter int
	Steps   int
	Time    float64

	// Step scratch, built on the first step and reused after: the advected
	// gradient, the explicit update, the diffusion right-hand side and the
	// Dirichlet values.
	cx, cy, cz, cs, rhs, bc []float64
}

// NewTransport builds an insulated zero-concentration scalar on the flow.
func NewTransport(s *Solver, d float64) *Transport {
	if d <= 0 {
		panic(fmt.Sprintf("nektar3d: diffusivity %v", d))
	}
	return &Transport{
		S: s, D: d,
		C:   s.G.NewField(),
		Tol: 1e-9, MaxIter: 4000,
	}
}

// SetInitial samples the initial concentration.
func (tr *Transport) SetInitial(fn func(x, y, z float64) float64) {
	tr.S.G.FillField(tr.C, fn)
}

// Step advances one time step of size S.Dt using the solver's current
// velocity field. Callers interleave flow and transport steps.
func (tr *Transport) Step() error {
	s := tr.S
	g := s.G
	dt := s.Dt

	if tr.cs == nil {
		tr.cx, tr.cy, tr.cz = g.NewField(), g.NewField(), g.NewField()
		tr.cs, tr.rhs, tr.bc = g.NewField(), g.NewField(), g.NewField()
	}
	cx, cy, cz, cs, rhs := tr.cx, tr.cy, tr.cz, tr.cs, tr.rhs

	// Explicit advection + source.
	g.GradientInto(cx, cy, cz, tr.C)
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				n := g.Idx(i, j, k)
				adv := s.U[n]*cx[n] + s.V[n]*cy[n] + s.W[n]*cz[n]
				var src float64
				if tr.Source != nil {
					src = tr.Source(tr.Time, g.X[i], g.Y[j], g.Z[k])
				}
				cs[n] = tr.C[n] + dt*(src-adv)
			}
		}
	}

	// Implicit diffusion: (M/(D dt) + K) c = M c*/(D dt).
	lambda := 1 / (tr.D * dt)
	for i := range rhs {
		rhs[i] = cs[i] * lambda
	}

	if tr.BC != nil {
		bc, mask := tr.bc, s.mask
		tNew := tr.Time + dt
		for k := 0; k < g.Nz; k++ {
			for j := 0; j < g.Ny; j++ {
				for i := 0; i < g.Nx; i++ {
					n := g.Idx(i, j, k)
					if mask[n] {
						bc[n] = tr.BC(tNew, g.X[i], g.Y[j], g.Z[k])
					}
				}
			}
		}
		// C is read only above: the solve may overwrite it in place.
		if _, err := g.SolveHelmholtzDirichletIn(tr.C, lambda, rhs, bc, tr.Tol, tr.MaxIter); err != nil {
			return fmt.Errorf("transport diffusion solve: %w", err)
		}
	} else {
		// Natural (insulated) boundaries: unmasked SPD solve on the arena,
		// preconditioned by the natural-boundary fast diagonalization.
		ar := g.arena()
		b, x := ar.b, ar.x
		for i := range b {
			b[i] = g.massDiag[i] * rhs[i]
		}
		copy(x, tr.C)
		ar.op.lambda = lambda
		ar.nat.lambda = lambda
		res, err := linalg.CGWith(&ar.cgws, ar.opIface, x, b, ar.nat, tr.Tol, tr.MaxIter)
		if err != nil {
			return fmt.Errorf("transport diffusion solve: %w", err)
		}
		if !res.Converged {
			return fmt.Errorf("transport diffusion %w at %g", ErrCGStalled, res.Residual)
		}
		copy(tr.C, x)
	}

	tr.Steps++
	tr.Time += dt
	return nil
}

// Run advances n transport steps (the flow field is frozen unless the
// caller also steps the solver).
func (tr *Transport) Run(n int) error {
	for i := 0; i < n; i++ {
		if err := tr.Step(); err != nil {
			return fmt.Errorf("transport step %d: %w", tr.Steps, err)
		}
	}
	return nil
}

// Total returns the mass-weighted integral of the concentration.
func (tr *Transport) Total() float64 { return tr.S.G.Integrate(tr.C) }
