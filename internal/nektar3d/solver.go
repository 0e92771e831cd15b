package nektar3d

import (
	"fmt"

	"nektarg/internal/linalg"
	"nektarg/internal/monitor"
	"nektarg/internal/telemetry"
)

// BCFunc supplies Dirichlet velocity at a boundary node; the solver queries
// it each step so coupled simulations can impose interface traces received
// from an adjacent patch or from the continuum-atomistic exchange.
type BCFunc func(t, x, y, z float64) (u, v, w float64)

// ForceFunc supplies the body force density at a node.
type ForceFunc func(t, x, y, z float64) (fx, fy, fz float64)

// Solver advances the incompressible Navier-Stokes equations with the
// high-order splitting (velocity-correction) scheme NεκTαr-3D uses:
// explicit advection, pressure Poisson projection, implicit viscous
// Helmholtz solve. The stiffly stable J=1 and J=2 time-integration variants
// are selected through Order.
type Solver struct {
	G  *Grid
	Nu float64 // kinematic viscosity
	Dt float64

	U, V, W []float64 // velocity fields
	Pr      []float64 // pressure

	Force ForceFunc
	VelBC BCFunc

	// Tol and MaxIter control the inner CG solves.
	Tol     float64
	MaxIter int

	// Order selects the stiffly stable time integration order (1 or 2).
	// The second-order scheme combines BDF2 with second-order extrapolation
	// of the explicit advection/forcing terms; the first step of an order-2
	// run falls back to order 1 to bootstrap the history.
	Order int

	// Steps counts completed time steps; Time is the current time.
	Steps int
	Time  float64

	// Rec is the optional per-rank telemetry recorder. When nil (the
	// default) instrumentation compiles to nil-receiver no-ops. When set,
	// Step emits ns.* spans for each stage of the splitting scheme and
	// gauges for the inner CG iteration counts and residuals.
	Rec *telemetry.Recorder

	// Watch is the optional solver watchdog bundle (monitor package). When
	// set, every step feeds the CG outcomes to the stagnation/divergence
	// watchdog and guards the velocity/pressure fields against NaN/Inf —
	// a tripped guard aborts the step with an error instead of letting
	// corruption propagate silently. Nil (the default) keeps every probe at
	// nil-receiver no-op cost.
	Watch *monitor.Watchdogs

	mask []bool
	bcU  []float64 // scratch Dirichlet value fields
	bcV  []float64
	bcW  []float64

	// Order-2 history: previous velocity and previous explicit term.
	uPrev, vPrev, wPrev       []float64
	exuPrev, exvPrev, exwPrev []float64

	// Step scratch (arena contract, DESIGN.md §14): solver-owned buffers the
	// step path reuses so steady-state Step performs zero allocations. Pure
	// workspace — overwritten before every use, never checkpointed (state.go
	// captures named state fields only). exu/exv/exw pointer-swap with
	// exuPrev/... each step instead of aliasing, so history stays intact.
	exu, exv, exw    []float64 // current explicit term
	qx, qy, qz       []float64 // advect/projection gradient components
	us, vs, ws       []float64 // intermediate velocity
	div              []float64 // divergence RHS
	rhsU, rhsV, rhsW []float64

	// probe is the output scratch of the diagnostics read between steps
	// (MaxDivergence, WallShearStress): same arena contract, built on first
	// use so a solver nobody probes never carries it.
	probe []float64
}

// NewSolver builds a solver with zero initial fields.
func NewSolver(g *Grid, nu, dt float64) *Solver {
	if nu <= 0 || dt <= 0 {
		panic(fmt.Sprintf("nektar3d: nu=%v dt=%v must be positive", nu, dt))
	}
	return &Solver{
		G: g, Nu: nu, Dt: dt,
		U: g.NewField(), V: g.NewField(), W: g.NewField(),
		Pr:  g.NewField(),
		Tol: 1e-8, MaxIter: 4000,
		Order: 1,
		mask:  g.BoundaryMask(),
		bcU:   g.NewField(), bcV: g.NewField(), bcW: g.NewField(),
	}
}

// SetInitial samples initial velocity.
func (s *Solver) SetInitial(fn func(x, y, z float64) (u, v, w float64)) {
	g := s.G
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				n := g.Idx(i, j, k)
				s.U[n], s.V[n], s.W[n] = fn(g.X[i], g.Y[j], g.Z[k])
			}
		}
	}
}

// fillBC samples the velocity Dirichlet fields at time t.
func (s *Solver) fillBC(t float64) {
	g := s.G
	if s.VelBC == nil {
		for i := range s.bcU {
			s.bcU[i], s.bcV[i], s.bcW[i] = 0, 0, 0
		}
		return
	}
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				n := g.Idx(i, j, k)
				if s.mask[n] {
					s.bcU[n], s.bcV[n], s.bcW[n] = s.VelBC(t, g.X[i], g.Y[j], g.Z[k])
				}
			}
		}
	}
}

// ensureScratch sizes the solver-owned step buffers (no-op once built; the
// exu trio is re-created lazily because the history swap can leave a side
// nil right after a restore).
func (s *Solver) ensureScratch() {
	g := s.G
	if s.exu == nil {
		s.exu = g.NewField()
		s.exv = g.NewField()
		s.exw = g.NewField()
	}
	if s.us == nil {
		s.qx, s.qy, s.qz = g.NewField(), g.NewField(), g.NewField()
		s.us, s.vs, s.ws = g.NewField(), g.NewField(), g.NewField()
		s.div = g.NewField()
		s.rhsU, s.rhsV, s.rhsW = g.NewField(), g.NewField(), g.NewField()
	}
}

// advectInto computes the convective term (u·∇)q into dst.
func (s *Solver) advectInto(dst, q []float64) {
	s.G.GradientInto(s.qx, s.qy, s.qz, q)
	for i := range dst {
		dst[i] = s.U[i]*s.qx[i] + s.V[i]*s.qy[i] + s.W[i]*s.qz[i]
	}
}

// explicitTerm computes ex = f - (u·∇)u at the current state into the
// solver's exu/exv/exw scratch.
func (s *Solver) explicitTerm() {
	g := s.G
	// The advected components land in exu/exv/exw directly and are negated
	// in the force pass below (exu[n] = fx - exu[n] matches the historical
	// fx - nu1[n] bit for bit).
	s.advectInto(s.exu, s.U)
	s.advectInto(s.exv, s.V)
	s.advectInto(s.exw, s.W)
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				n := g.Idx(i, j, k)
				var fx, fy, fz float64
				if s.Force != nil {
					fx, fy, fz = s.Force(s.Time, g.X[i], g.Y[j], g.Z[k])
				}
				s.exu[n] = fx - s.exu[n]
				s.exv[n] = fy - s.exv[n]
				s.exw[n] = fz - s.exw[n]
			}
		}
	}
}

// Step advances one time step of the stiffly stable velocity-correction
// scheme at the configured Order.
func (s *Solver) Step() error {
	g := s.G
	dt := s.Dt
	tNew := s.Time + dt

	step := s.Rec.Begin("ns.step")
	defer step.End()

	order := s.Order
	if order < 1 || order > 2 {
		return fmt.Errorf("nektar3d: unsupported time order %d", s.Order)
	}
	if order == 2 && s.uPrev == nil {
		order = 1 // bootstrap the history with one first-order step
	}

	// Pre-step guard: corruption arriving from outside the step (coupling
	// exchanges, injected state) is caught here, before 4000 CG iterations
	// chew on NaNs; the post-step guard below catches corruption the step
	// itself produced.
	if err := s.guardFields(); err != nil {
		return err
	}

	s.ensureScratch()
	s.Rec.Gauge("ns.parallel", float64(g.Workers()))

	// 1. Explicit step: û = Σ α_q u^{n-q} + dt Σ β_q (f - N)^{n-q};
	// order 1: α = (1), β = (1); order 2: α = (2, -1/2), β = (2, -1).
	adv := s.Rec.Begin("ns.advection")
	s.explicitTerm()
	exu, exv, exw := s.exu, s.exv, s.exw
	us, vs, ws := s.us, s.vs, s.ws
	gamma0 := 1.0
	if order == 1 {
		for i := range us {
			us[i] = s.U[i] + dt*exu[i]
			vs[i] = s.V[i] + dt*exv[i]
			ws[i] = s.W[i] + dt*exw[i]
		}
	} else {
		gamma0 = 1.5
		for i := range us {
			us[i] = 2*s.U[i] - 0.5*s.uPrev[i] + dt*(2*exu[i]-s.exuPrev[i])
			vs[i] = 2*s.V[i] - 0.5*s.vPrev[i] + dt*(2*exv[i]-s.exvPrev[i])
			ws[i] = 2*s.W[i] - 0.5*s.wPrev[i] + dt*(2*exw[i]-s.exwPrev[i])
		}
	}
	// Record history for the next step. The explicit-term buffers swap with
	// the history slots (no copy, no aliasing); ensureScratch re-creates the
	// scratch side next step if the history side was nil.
	s.uPrev = append(s.uPrev[:0], s.U...)
	s.vPrev = append(s.vPrev[:0], s.V...)
	s.wPrev = append(s.wPrev[:0], s.W...)
	s.exuPrev, s.exu = s.exu, s.exuPrev
	s.exvPrev, s.exv = s.exv, s.exvPrev
	s.exwPrev, s.exw = s.exw, s.exwPrev
	adv.End()

	// 2. Pressure Poisson: ∇²p = ∇·û/dt, homogeneous Neumann.
	pr := s.Rec.Begin("ns.pressure")
	div := s.div
	g.DivergenceInto(div, us, vs, ws)
	for i := range div {
		div[i] /= dt
	}
	pst, err := g.SolvePoissonNeumannIn(s.Pr, div, s.Tol, s.MaxIter)
	pr.End()
	// The watchdog sees every solve, failed ones first of all: a stalled or
	// broken-down CG is what its stagnation/divergence branches are for.
	s.Watch.ObserveSolve("ns.pressure", pst, s.MaxIter)
	if err != nil {
		return fmt.Errorf("pressure solve: %w", err)
	}
	s.Rec.Gauge("ns.pressure.iters", float64(pst.Iterations))
	s.Rec.Gauge("ns.pressure.residual", pst.Residual)

	// 3. Projection: û̂ = û - dt ∇p.
	proj := s.Rec.Begin("ns.projection")
	g.GradientInto(s.qx, s.qy, s.qz, s.Pr)
	for i := range us {
		us[i] -= dt * s.qx[i]
		vs[i] -= dt * s.qy[i]
		ws[i] -= dt * s.qz[i]
	}
	proj.End()

	// 4. Implicit viscous solve: (γ0 M/(ν dt) + K) u^{n+1} = M û̂/(ν dt),
	// Dirichlet velocity boundaries at t^{n+1}.
	s.fillBC(tNew)
	lambda := gamma0 / (s.Nu * dt)
	scale := 1 / (s.Nu * dt)
	rhsU, rhsV, rhsW := s.rhsU, s.rhsV, s.rhsW
	for i := range rhsU {
		rhsU[i] = us[i] * scale
		rhsV[i] = vs[i] * scale
		rhsW[i] = ws[i] * scale
	}
	helm := s.Rec.Begin("ns.helmholtz")
	var hst linalg.SolveStats
	var hIters int
	for _, c := range [...]struct {
		name       string
		u, rhs, bc []float64
	}{{"u", s.U, rhsU, s.bcU}, {"v", s.V, rhsV, s.bcV}, {"w", s.W, rhsW, s.bcW}} {
		hst, err = g.SolveHelmholtzDirichletIn(c.u, lambda, c.rhs, c.bc, s.Tol, s.MaxIter)
		s.Watch.ObserveSolve("ns.helmholtz", hst, s.MaxIter)
		if err != nil {
			helm.End()
			return fmt.Errorf("viscous solve %s: %w", c.name, err)
		}
		hIters += hst.Iterations
	}
	helm.End()
	s.Rec.Gauge("ns.helmholtz.iters", float64(hIters))
	s.Rec.Gauge("ns.helmholtz.residual", hst.Residual)

	// NaN/Inf field guard: corrupted state trips the health watchdog and
	// aborts the step instead of silently advancing garbage.
	if err := s.guardFields(); err != nil {
		return err
	}

	s.Steps++
	s.Time = tNew
	return nil
}

// guardFields scans the primary fields for non-finite values when the
// watchdog bundle is attached (no-op otherwise).
func (s *Solver) guardFields() error {
	if s.Watch == nil {
		return nil
	}
	for _, f := range [...]struct {
		name string
		data []float64
	}{{"u", s.U}, {"v", s.V}, {"w", s.W}, {"p", s.Pr}} {
		if err := s.Watch.GuardField("ns.step", f.name, f.data); err != nil {
			return err
		}
	}
	return nil
}

// Run advances n steps.
func (s *Solver) Run(n int) error {
	for i := 0; i < n; i++ {
		if err := s.Step(); err != nil {
			return fmt.Errorf("step %d: %w", s.Steps, err)
		}
	}
	return nil
}

// probeField returns the diagnostics scratch field.
func (s *Solver) probeField() []float64 {
	if s.probe == nil {
		s.probe = s.G.NewField()
	}
	return s.probe
}

// MaxDivergence returns the max-norm of ∇·u, the incompressibility check.
// Steady-state calls allocate nothing.
func (s *Solver) MaxDivergence() float64 {
	div := s.probeField()
	s.G.DivergenceInto(div, s.U, s.V, s.W)
	var m float64
	for _, v := range div {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// KineticEnergy returns 0.5 ∫ |u|^2.
func (s *Solver) KineticEnergy() float64 {
	var e float64
	for i := range s.U {
		e += s.G.massDiag[i] * (s.U[i]*s.U[i] + s.V[i]*s.V[i] + s.W[i]*s.W[i])
	}
	return e / 2
}
