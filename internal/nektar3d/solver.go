package nektar3d

import (
	"fmt"
	"slices"

	"nektarg/internal/linalg"
	"nektarg/internal/monitor"
	"nektarg/internal/telemetry"
)

// BCFunc supplies Dirichlet velocity at a boundary node; the solver queries
// it each step for the physical boundaries (walls, inlets). Interface traces
// received from an adjacent patch go through ImposeFace instead.
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

	// Tol bounds the relative residual of a checked solve: every solve of
	// Step, and of the last step of each Run. MaxIter is the CG budget of
	// Step's solves when a residual is above Tol; Run's checking step does
	// not iterate, so a residual above Tol there is an error.
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
	// every step emits ns.* spans for each stage of the splitting scheme,
	// and every step that checks its solves (Step, the last of a Run) gauges
	// for their CG iteration counts and residuals.
	Rec *telemetry.Recorder

	// Watch is the optional solver watchdog bundle (monitor package). When
	// set, every checked solve feeds its CG outcome to the
	// stagnation/divergence watchdog, and every step guards the
	// velocity/pressure fields against NaN/Inf — a tripped guard aborts the
	// step with an error instead of letting corruption propagate silently.
	// Nil (the default) keeps every probe at nil-receiver no-op cost.
	Watch *monitor.Watchdogs

	mask []bool
	bcU  []float64 // scratch Dirichlet value fields
	bcV  []float64
	bcW  []float64

	// faces are the boundary faces ImposeFace set, in the order last
	// imposed; fillBC writes them over VelBC in that order.
	faces []imposedFace

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
	// (MaxDivergence): same arena contract, built on first use so a solver
	// nobody probes never carries it.
	probe []float64
}

// NewSolver builds a solver with zero initial fields. The viscosity nu and
// the time step dt must be positive; the error names the one that is not.
func NewSolver(g *Grid, nu, dt float64) (*Solver, error) {
	if !(nu > 0) {
		return nil, fmt.Errorf("nu %v: must be positive", nu)
	}
	if !(dt > 0) {
		return nil, fmt.Errorf("dt %v: must be positive", dt)
	}
	return &Solver{
		G: g, Nu: nu, Dt: dt,
		U: g.NewField(), V: g.NewField(), W: g.NewField(),
		Pr:  g.NewField(),
		Tol: 1e-8, MaxIter: 4000,
		Order: 1,
		mask:  g.BoundaryMask(),
		bcU:   g.NewField(), bcV: g.NewField(), bcW: g.NewField(),
	}, nil
}

// checkOrder is the one rule on Order: the scheme is first or second order.
func checkOrder(order int) error {
	if order < 1 || order > 2 {
		return fmt.Errorf("nektar3d: unsupported time order %d", order)
	}
	return nil
}

// SetOrder selects the time integration order, refusing one Step cannot run.
func (s *Solver) SetOrder(order int) error {
	err := checkOrder(order)
	if err == nil {
		s.Order = order
	}
	return err
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

// imposedFace is the Dirichlet velocity of one boundary face: node indices
// and values in FaceNodes order.
type imposedFace struct {
	name    string
	nodes   []int
	u, v, w []float64
}

// ImposeFace makes u, v and w, given in FacePoints order, the Dirichlet
// velocity of one boundary face from the next step on, in place of VelBC
// there: the interface trace a coupled patch receives (§3.2). The values are
// copied. Faces are written in the order they were last imposed, so a node
// two faces share (an edge) carries the later call's value. It refuses what
// FaceNodes refuses and slices whose length is not the face's node count.
func (s *Solver) ImposeFace(face string, u, v, w []float64) error {
	i := slices.IndexFunc(s.faces, func(f imposedFace) bool { return f.name == face })
	f := imposedFace{name: face}
	if i >= 0 {
		f = s.faces[i]
	} else {
		var err error
		if f.nodes, err = s.G.FaceNodes(face); err != nil {
			return err
		}
	}
	if m := len(f.nodes); len(u) != m || len(v) != m || len(w) != m {
		return fmt.Errorf("nektar3d: face %s has %d nodes, got %d, %d and %d values",
			face, m, len(u), len(v), len(w))
	}
	f.u, f.v, f.w = append(f.u[:0], u...), append(f.v[:0], v...), append(f.w[:0], w...)
	if i >= 0 {
		s.faces = slices.Delete(s.faces, i, i+1)
	}
	s.faces = append(s.faces, f)
	return nil
}

// fillBC fills the velocity Dirichlet fields at time t: VelBC (or zero) on
// the mask, then every imposed face over it.
func (s *Solver) fillBC(t float64) {
	g := s.G
	if s.VelBC == nil {
		for i := range s.bcU {
			s.bcU[i], s.bcV[i], s.bcW[i] = 0, 0, 0
		}
	} else {
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
	for _, f := range s.faces {
		for i, n := range f.nodes {
			s.bcU[n], s.bcV[n], s.bcW[n] = f.u[i], f.v[i], f.w[i]
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
		dst[i] = float64(s.U[i]*s.qx[i]) + float64(s.V[i]*s.qy[i]) + float64(s.W[i]*s.qz[i])
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

// solveCheck says how a step checks its four solves (one pressure Poisson,
// three viscous Helmholtz), each the fast-diagonalization solve of its
// right-hand side.
type solveCheck int8

const (
	// unchecked takes the fast-diagonalization solve as it is: on the grid's
	// uniform box it is the exact inverse, up to round-off.
	unchecked solveCheck = iota
	// verified computes each solve's residual against Tol, feeds it to the
	// watchdog and the ns.* gauges, and fails the step with ErrCGStalled
	// above Tol, without iterating.
	verified
	// iterated is verified with CG allowed up to MaxIter iterations, and the
	// Poisson solve accepted under sqrt(Tol) when they run out.
	iterated
)

// Step advances one time step of the stiffly stable velocity-correction
// scheme at the configured Order, every solve checked and, where its
// residual is above Tol, iterated on by CG.
func (s *Solver) Step() error { return s.step(iterated) }

// step is Step with the solves checked as check says.
func (s *Solver) step(check solveCheck) error {
	g := s.G
	dt := s.Dt
	tNew := s.Time + dt

	step := s.Rec.Begin("ns.step")
	defer step.End()

	if err := checkOrder(s.Order); err != nil {
		return err
	}
	order := s.Order
	if order == 2 && s.uPrev == nil {
		order = 1 // bootstrap the history with one first-order step
	}

	// Pre-step guard: corruption arriving from outside the step (coupling
	// exchanges, injected state) is caught here, before the solves spread it
	// over every node; the post-step guard below catches corruption the step
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
			us[i] = s.U[i] + float64(dt*exu[i])
			vs[i] = s.V[i] + float64(dt*exv[i])
			ws[i] = s.W[i] + float64(dt*exw[i])
		}
	} else {
		gamma0 = 1.5
		for i := range us {
			us[i] = float64(2*s.U[i]) - float64(0.5*s.uPrev[i]) + float64(dt*(float64(2*exu[i])-s.exuPrev[i]))
			vs[i] = float64(2*s.V[i]) - float64(0.5*s.vPrev[i]) + float64(dt*(float64(2*exv[i])-s.exvPrev[i]))
			ws[i] = float64(2*s.W[i]) - float64(0.5*s.wPrev[i]) + float64(dt*(float64(2*exw[i])-s.exwPrev[i]))
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
	err := s.solvePressure(div, check)
	pr.End()
	if err != nil {
		return fmt.Errorf("pressure solve: %w", err)
	}

	// 3. Projection: û̂ = û - dt ∇p.
	proj := s.Rec.Begin("ns.projection")
	g.GradientInto(s.qx, s.qy, s.qz, s.Pr)
	for i := range us {
		us[i] -= float64(dt * s.qx[i])
		vs[i] -= float64(dt * s.qy[i])
		ws[i] -= float64(dt * s.qz[i])
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
	err = s.solveViscous(lambda, check)
	helm.End()
	if err != nil {
		return err
	}

	// NaN/Inf field guard: corrupted state trips the health watchdog and
	// aborts the step instead of silently advancing garbage.
	if err := s.guardFields(); err != nil {
		return err
	}

	s.Steps++
	s.Time = tNew
	return nil
}

// budget is the CG iteration budget of a checked solve.
func (s *Solver) budget(check solveCheck) int {
	if check == iterated {
		return s.MaxIter
	}
	return 0
}

// solvePressure solves the pressure Poisson problem into Pr.
func (s *Solver) solvePressure(div []float64, check solveCheck) error {
	if check == unchecked {
		s.G.solvePoissonDirect(s.Pr, div)
		return nil
	}
	maxIter := s.budget(check)
	st, err := s.G.SolvePoissonNeumannIn(s.Pr, div, s.Tol, maxIter)
	if err == nil && check == verified && !st.Converged {
		// No CG iterated on this solve or the unchecked ones before it, so
		// Tol is the bound, not the sqrt(Tol) a stopped CG is allowed.
		err = fmt.Errorf("nektar3d: Poisson %w at %g without iterating", ErrCGStalled, st.Residual)
	}
	// The watchdog sees every checked solve, failed ones first of all: a
	// stalled or broken-down CG is what its stagnation/divergence branches
	// are for.
	s.Watch.ObserveSolve("ns.pressure", st, maxIter)
	if err != nil {
		return err
	}
	s.Rec.Gauge("ns.pressure.iters", float64(st.Iterations))
	s.Rec.Gauge("ns.pressure.residual", st.Residual)
	return nil
}

// solveViscous solves the three viscous Helmholtz problems into U, V, W.
func (s *Solver) solveViscous(lambda float64, check solveCheck) error {
	comps := [...]struct {
		name       string
		u, rhs, bc []float64
	}{{"u", s.U, s.rhsU, s.bcU}, {"v", s.V, s.rhsV, s.bcV}, {"w", s.W, s.rhsW, s.bcW}}
	if check == unchecked {
		for _, c := range comps {
			s.G.solveHelmholtzDirect(c.u, lambda, c.rhs, c.bc)
		}
		return nil
	}
	maxIter := s.budget(check)
	var st linalg.SolveStats
	var iters int
	for _, c := range comps {
		var err error
		st, err = s.G.SolveHelmholtzDirichletIn(c.u, lambda, c.rhs, c.bc, s.Tol, maxIter)
		s.Watch.ObserveSolve("ns.helmholtz", st, maxIter)
		if err != nil {
			return fmt.Errorf("viscous solve %s: %w", c.name, err)
		}
		iters += st.Iterations
	}
	s.Rec.Gauge("ns.helmholtz.iters", float64(iters))
	s.Rec.Gauge("ns.helmholtz.residual", st.Residual)
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

// Run advances n steps, one exchange period of a coupled run. Its first n-1
// steps take the fast-diagonalization solves unchecked: on the grid's
// uniform box they are the exact inverse, so a residual would only confirm
// round-off. The last step checks every solve against Tol without
// iterating: a factor that is not the inverse served all n steps, so it ends
// this Run with an error wrapping ErrCGStalled rather than being repaired in
// one step. Step is the step whose every solve is checked.
func (s *Solver) Run(n int) error {
	for i := 0; i < n; i++ {
		check := unchecked
		if i == n-1 {
			check = verified
		}
		if err := s.step(check); err != nil {
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
		e += float64(s.G.massDiag[i] * (float64(s.U[i]*s.U[i]) + float64(s.V[i]*s.V[i]) + float64(s.W[i]*s.W[i])))
	}
	return e / 2
}
