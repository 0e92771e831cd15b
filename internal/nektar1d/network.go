package nektar1d

import (
	"errors"
	"fmt"
	"math"

	"nektarg/internal/linalg"
	"nektarg/internal/monitor"
	"nektarg/internal/telemetry"
)

// Windkessel is the lumped RC outflow model the paper couples to every
// outlet: a peripheral resistance R in parallel with a compliance C. The
// capacitor pressure P is the outlet pressure; C dP/dt = Q - P/R.
type Windkessel struct {
	R, C float64
	P    float64
}

// NewWindkessel builds an RC element at zero pressure.
func NewWindkessel(r, c float64) *Windkessel {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("nektar1d: windkessel needs R,C > 0, got %v %v", r, c))
	}
	return &Windkessel{R: r, C: c}
}

// Inlet prescribes volumetric inflow Q(t) at a segment's x=0 boundary.
type Inlet struct {
	Seg *Segment
	Q   func(t float64) float64
}

// Outlet terminates a segment's x=L boundary with a windkessel.
type Outlet struct {
	Seg *Segment
	WK  *Windkessel
}

// Junction joins the end of Parent to the starts of Children with pressure
// continuity and mass conservation (a bifurcation for two children, a simple
// connection for one).
type Junction struct {
	Parent   *Segment
	Children []*Segment
}

// Network is a tree of segments with boundary devices.
type Network struct {
	Segments  []*Segment
	Inlets    []*Inlet
	Outlets   []*Outlet
	Junctions []*Junction
	Time      float64
	Steps     int

	// InVol and OutVol integrate the realized boundary fluxes: ∫Q dt over
	// every inlet and outlet (including windkessel terminals), using the
	// post-solve boundary states so the bookkeeping matches what the scheme
	// actually admitted and discharged. V(t) − InVol + OutVol is then a
	// discrete invariant up to truncation error — the quantity the physics
	// audit ledger watches as the network's mass balance.
	InVol  float64
	OutVol float64

	// Rec is the optional per-rank telemetry recorder; nil (the default)
	// disables the 1d.* spans at nil-receiver no-op cost.
	Rec *telemetry.Recorder

	// Watch is the optional solver watchdog bundle: Step feeds the network's
	// worst CFL number to the cfl-watch (warn near the stability limit,
	// critical past it) and guards the (A, U) state against NaN/Inf. Nil
	// disables all probes.
	Watch *monitor.Watchdogs

	// ar holds every buffer Step works in; see stepArena.
	ar *stepArena
}

// stepArena is the scratch a Network steps in: the next time level and the
// MacCormack predictor of every segment side by side in four node buffers
// (segment i owns [off[i], off[i+1])), the NaN-guard field names, and each
// junction's Newton system. The Network owns it; Step builds it on first use
// and rebuilds it when the wiring it was laid out for (Segments, their N,
// Inlets, Outlets, Junctions) has changed since, so a step never indexes
// through a stale layout and a healthy step allocates nothing.
type stepArena struct {
	segs         []*Segment
	off          []int
	newA, newU   []float64
	ap, up       []float64
	nameA, nameU []string
	inlets       []int     // segment index of each inlet
	outlets      []int     // segment index of each outlet
	wkP          []float64 // next windkessel pressure of each outlet
	juncs        []junctionArena
}

// junctionArena is one junction's Newton system over its nb = 1 + children
// branches (parent first): 2·nb unknowns a_0..a_m, u_0..u_m.
type junctionArena struct {
	segs       []*Segment
	at         []int // each branch's junction node in the arena's node buffers
	w, c, x, f []float64
	jac        *linalg.Dense
}

// ErrJunctionStalled is returned (wrapped, through Step) when a junction's
// Newton iteration reaches junctionMaxIter without meeting junctionTol: the
// step is refused rather than advanced on an unconverged boundary state.
var ErrJunctionStalled = errors.New("junction Newton iteration stalled")

// The junction Newton stops when its last update is below junctionTol
// relative to each branch's own scales: |δa_b| ≤ tol·a_b and |δu_b| ≤ tol·c_b
// (u itself may be zero). Newton converges quadratically, so an update of
// 1e-9 leaves an error of order 1e-18, under float64's resolution, while
// round-off in the update sits near 1e-15: the rule is reachable with six
// digits to spare, where an absolute bound on a residual whose pressure rows
// are O(β√A) ≈ 4e4 is not.
const junctionTol = 1e-9

// junctionMaxIter caps the iteration; a healthy solve takes one to three. A
// variable only so the stall tests can lower it.
var junctionMaxIter = 80

// newStepArena lays the buffers out for the network's current wiring. A
// boundary device or junction on a segment the network does not hold, or a
// segment whose arrays disagree with its N, is an error here rather than an
// out-of-range index in the step.
func newStepArena(n *Network) (*stepArena, error) {
	ar := &stepArena{
		segs:  append([]*Segment(nil), n.Segments...),
		off:   make([]int, len(n.Segments)+1),
		nameA: make([]string, len(n.Segments)),
		nameU: make([]string, len(n.Segments)),
	}
	index := make(map[*Segment]int, len(n.Segments))
	for i, s := range n.Segments {
		if s.N < 3 || len(s.A) != s.N || len(s.U) != s.N {
			return nil, fmt.Errorf("nektar1d: segment %q has N=%d but %d/%d nodes", s.Name, s.N, len(s.A), len(s.U))
		}
		if _, dup := index[s]; dup {
			return nil, fmt.Errorf("nektar1d: segment %q registered twice", s.Name)
		}
		index[s] = i
		ar.off[i+1] = ar.off[i] + s.N
		ar.nameA[i], ar.nameU[i] = s.Name+".A", s.Name+".U"
	}
	total := ar.off[len(n.Segments)]
	nodes := make([]float64, 4*total)
	ar.newA, ar.newU, ar.ap, ar.up = nodes[:total], nodes[total:2*total], nodes[2*total:3*total], nodes[3*total:]

	lookup := func(what string, s *Segment) (int, error) {
		i, ok := index[s]
		if !ok {
			return 0, fmt.Errorf("nektar1d: %s on segment %q, which is not in the network", what, s.Name)
		}
		return i, nil
	}
	var err error
	ar.inlets = make([]int, len(n.Inlets))
	for i, in := range n.Inlets {
		if ar.inlets[i], err = lookup("inlet", in.Seg); err != nil {
			return nil, err
		}
	}
	ar.outlets = make([]int, len(n.Outlets))
	ar.wkP = make([]float64, len(n.Outlets))
	for i, out := range n.Outlets {
		if ar.outlets[i], err = lookup("outlet", out.Seg); err != nil {
			return nil, err
		}
	}
	ar.juncs = make([]junctionArena, len(n.Junctions))
	for i, j := range n.Junctions {
		if len(j.Children) < 1 {
			return nil, fmt.Errorf("nektar1d: junction of %q has no children", j.Parent.Name)
		}
		nb := 1 + len(j.Children)
		ja := &ar.juncs[i]
		ja.segs = append(append(make([]*Segment, 0, nb), j.Parent), j.Children...)
		ja.at = make([]int, nb)
		for b, s := range ja.segs {
			i, err := lookup("junction", s)
			if err != nil {
				return nil, err
			}
			ja.at[b] = ar.off[i] // a child starts at the junction,
			if b == 0 {
				ja.at[b] = ar.off[i+1] - 1 // the parent ends there
			}
		}
		vec := make([]float64, 6*nb)
		ja.w, ja.c, ja.x, ja.f = vec[:nb], vec[nb:2*nb], vec[2*nb:4*nb], vec[4*nb:]
		ja.jac = linalg.NewDense(2*nb, 2*nb)
	}
	return ar, nil
}

// fits reports whether the arena was laid out for the network's current
// wiring.
func (ar *stepArena) fits(n *Network) bool {
	if len(ar.segs) != len(n.Segments) || len(ar.inlets) != len(n.Inlets) ||
		len(ar.outlets) != len(n.Outlets) || len(ar.juncs) != len(n.Junctions) {
		return false
	}
	for i, s := range n.Segments {
		if s != ar.segs[i] || s.N != ar.off[i+1]-ar.off[i] || len(s.A) != s.N || len(s.U) != s.N {
			return false
		}
	}
	for i, in := range n.Inlets {
		if in.Seg != ar.segs[ar.inlets[i]] {
			return false
		}
	}
	for i, out := range n.Outlets {
		if out.Seg != ar.segs[ar.outlets[i]] {
			return false
		}
	}
	for i, j := range n.Junctions {
		segs := ar.juncs[i].segs
		if len(segs) != 1+len(j.Children) || segs[0] != j.Parent {
			return false
		}
		for b, c := range j.Children {
			if segs[1+b] != c {
				return false
			}
		}
	}
	return true
}

// nodes returns segment i's slice of a node buffer.
func (ar *stepArena) nodes(buf []float64, i int) []float64 {
	return buf[ar.off[i]:ar.off[i+1]]
}

// AddSegment registers a segment.
func (n *Network) AddSegment(s *Segment) *Segment {
	n.Segments = append(n.Segments, s)
	return s
}

// Step advances the whole network by dt. It returns an error if the CFL
// bound is violated, a boundary or junction solve fails, or the wiring is
// inconsistent (see newStepArena).
func (n *Network) Step(dt float64) error {
	sp := n.Rec.Begin("1d.step")
	defer sp.End()
	if n.ar == nil || !n.ar.fits(n) {
		ar, err := newStepArena(n)
		if err != nil {
			return err
		}
		n.ar = ar
	}
	ar := n.ar
	var worstCFL float64
	for _, s := range n.Segments {
		cfl := s.MaxCFL(dt)
		if cfl > worstCFL {
			worstCFL = cfl
		}
		if cfl > 1 {
			n.Watch.ObserveCFL("1d.step", cfl, 1)
			return fmt.Errorf("nektar1d: CFL %0.2f > 1 on segment %q", cfl, s.Name)
		}
	}
	n.Watch.ObserveCFL("1d.step", worstCFL, 1)
	// Interior update into the arena's next time level.
	for i, s := range n.Segments {
		s.interiorStep(dt, ar.nodes(ar.newA, i), ar.nodes(ar.newU, i), ar.nodes(ar.ap, i), ar.nodes(ar.up, i))
	}

	// Inlets: prescribed Q with backward characteristic from the interior.
	for i, in := range n.Inlets {
		s := in.Seg
		w2 := s.charMinus(s.A[1], s.U[1])
		q := in.Q(n.Time + dt)
		a, u, err := solveInletQ(s, q, w2)
		if err != nil {
			return fmt.Errorf("nektar1d: inlet on %q: %w", s.Name, err)
		}
		first := ar.off[ar.inlets[i]]
		ar.newA[first], ar.newU[first] = a, u
	}

	// Outlets: windkessel pressure coupled implicitly with the forward
	// characteristic. The explicit splitting is unstable for stiff RC
	// parameters (loop gain dt/C · dq/dP can exceed 1), so we Newton-solve
	//   P = P_old + dt (q(P) - P/R)/C,  q(P) = a(P) (w1 - 4 c(a(P)))
	// for the new capacitor pressure.
	for i, out := range n.Outlets {
		s := out.Seg
		w1 := s.charPlus(s.A[s.N-2], s.U[s.N-2])
		p, a, u, err := solveOutletWK(s, out.WK, w1, dt)
		if err != nil {
			return fmt.Errorf("nektar1d: outlet on %q: %w", s.Name, err)
		}
		ar.wkP[i] = p
		last := ar.off[ar.outlets[i]+1] - 1
		ar.newA[last], ar.newU[last] = a, u
	}

	// Junctions: Newton solve for pressure continuity + mass conservation.
	for i := range ar.juncs {
		if err := ar.juncs[i].solve(ar); err != nil {
			return err
		}
	}

	// Every solve succeeded: commit the new time level. A step refused above
	// leaves segments and windkessels where the last good step put them.
	for i, s := range n.Segments {
		copy(s.A, ar.nodes(ar.newA, i))
		copy(s.U, ar.nodes(ar.newU, i))
	}
	for i, out := range n.Outlets {
		out.WK.P = ar.wkP[i]
	}
	// NaN/Inf guard over the updated (A, U) state: a tripped guard aborts
	// the step with a structured health event instead of advancing garbage.
	if n.Watch != nil {
		for i, s := range n.Segments {
			if err := n.Watch.GuardField("1d.step", ar.nameA[i], s.A); err != nil {
				return err
			}
			if err := n.Watch.GuardField("1d.step", ar.nameU[i], s.U); err != nil {
				return err
			}
		}
	}
	for _, in := range n.Inlets {
		s := in.Seg
		n.InVol += float64(dt * s.A[0] * s.U[0])
	}
	for _, out := range n.Outlets {
		s := out.Seg
		n.OutVol += float64(dt * s.A[s.N-1] * s.U[s.N-1])
	}
	n.Time += dt
	n.Steps++
	return nil
}

// solveInletQ finds (a, u) at the inlet with a*u = q and backward invariant
// u - 4c(a) = w2, by Newton iteration on a.
func solveInletQ(s *Segment, q, w2 float64) (float64, float64, error) {
	a := s.A[0]
	if a <= 0 {
		a = s.A0
	}
	for iter := 0; iter < 60; iter++ {
		c := s.WaveSpeed(a)
		f := q/a - (w2 + float64(4*c))
		dcda := c / (4 * a)
		df := -q/(a*a) - float64(4*dcda)
		da := f / df
		aNew := a - da
		if aNew < 1e-10*s.A0 {
			aNew = a / 2
		}
		if math.Abs(aNew-a) < 1e-14*s.A0 {
			a = aNew
			break
		}
		a = aNew
	}
	u := q / a
	if math.IsNaN(a) || math.IsNaN(u) {
		return 0, 0, fmt.Errorf("inlet Newton diverged (q=%v w2=%v)", q, w2)
	}
	return a, u, nil
}

// solveOutletWK finds the new windkessel pressure P and the boundary state
// (a, u) satisfying the backward-Euler windkessel update and the forward
// characteristic simultaneously.
func solveOutletWK(s *Segment, wk *Windkessel, w1, dt float64) (p, a, u float64, err error) {
	g := dt / wk.C
	p = wk.P
	eval := func(p float64) (f, df, a, u float64) {
		sq := p/s.Beta + math.Sqrt(s.A0)
		if sq < 1e-9 {
			sq = 1e-9
		}
		a = sq * sq
		c := s.WaveSpeed(a)
		u = w1 - float64(4*c)
		q := float64(a * u)
		dadp := 2 * sq / s.Beta
		dcdp := c / (4 * a) * dadp
		dqdp := float64(dadp*u) - float64(4*a*dcdp)
		f = p - wk.P - float64(g*(q-p/wk.R))
		df = 1 - float64(g*(dqdp-1/wk.R))
		return f, df, a, u
	}
	for iter := 0; iter < 80; iter++ {
		f, df, aa, uu := eval(p)
		a, u = aa, uu
		dp := f / df
		p -= dp
		if math.Abs(dp) < 1e-12*(1+math.Abs(p)) {
			break
		}
	}
	_, _, a, u = eval(p)
	if math.IsNaN(p) || math.IsNaN(a) || math.IsNaN(u) {
		return 0, 0, 0, fmt.Errorf("windkessel Newton diverged (w1=%v)", w1)
	}
	return p, a, u, nil
}

// solve matches the junction branches: unknowns (a_b, u_b) for the parent
// end and each child start; equations are the outgoing/incoming Riemann
// invariants, mass conservation and pressure continuity. The result lands in
// the arena's next time level.
func (ja *junctionArena) solve(ar *stepArena) error {
	segs, w, c, x, f, jac := ja.segs, ja.w, ja.c, ja.x, ja.f, ja.jac
	nb := len(segs)
	p := segs[0]

	// Characteristic targets from the interior (old time level), and the
	// current boundary values as the initial guess.
	w[0] = p.charPlus(p.A[p.N-2], p.U[p.N-2])
	x[0] = p.A[p.N-1]
	x[nb] = p.U[p.N-1]
	for b := 1; b < nb; b++ {
		s := segs[b]
		w[b] = s.charMinus(s.A[1], s.U[1])
		x[b] = s.A[0]
		x[nb+b] = s.U[0]
	}

	for iter := 0; iter < junctionMaxIter; iter++ {
		clear(jac.Data)
		// Characteristic equations.
		for b := 0; b < nb; b++ {
			a, u := x[b], x[nb+b]
			c[b] = segs[b].WaveSpeed(a)
			dcda := c[b] / (4 * a)
			if b == 0 {
				f[b] = u + float64(4*c[b]) - w[b]
				jac.Set(b, b, 4*dcda)
			} else {
				f[b] = u - float64(4*c[b]) - w[b]
				jac.Set(b, b, -4*dcda)
			}
			jac.Set(b, nb+b, 1)
		}
		// Mass conservation: a0 u0 - sum ab ub = 0.
		row := nb
		f[row] = x[0] * x[nb]
		jac.Set(row, 0, x[nb])
		jac.Set(row, nb, x[0])
		for b := 1; b < nb; b++ {
			f[row] -= float64(x[b] * x[nb+b])
			jac.Set(row, b, -x[nb+b])
			jac.Set(row, nb+b, -x[b])
		}
		// Pressure continuity: p0(a0) - pb(ab) = 0 for each child.
		for b := 1; b < nb; b++ {
			row := nb + b
			p0 := float64(segs[0].Beta * (math.Sqrt(x[0]) - math.Sqrt(segs[0].A0)))
			pb := float64(segs[b].Beta * (math.Sqrt(x[b]) - math.Sqrt(segs[b].A0)))
			f[row] = p0 - pb
			jac.Set(row, 0, segs[0].Beta/(2*math.Sqrt(x[0])))
			jac.Set(row, b, -segs[b].Beta/(2*math.Sqrt(x[b])))
		}

		// f becomes the Newton update in place.
		if err := linalg.SolveLUInPlace(jac, f); err != nil {
			return fmt.Errorf("nektar1d: junction at %q: %w", p.Name, err)
		}
		converged := true
		for b := 0; b < nb; b++ {
			x[b] -= f[b]
			x[nb+b] -= f[nb+b]
			if x[b] <= 0 || math.IsNaN(x[b]) {
				return fmt.Errorf("nektar1d: junction at %q: negative area in Newton", p.Name)
			}
			// Negated <= so that a NaN update never counts as converged.
			if !(math.Abs(f[b]) <= junctionTol*x[b] && math.Abs(f[nb+b]) <= junctionTol*c[b]) {
				converged = false
			}
		}
		if converged {
			for b, at := range ja.at {
				ar.newA[at], ar.newU[at] = x[b], x[nb+b]
			}
			return nil
		}
	}
	return fmt.Errorf("nektar1d: junction at %q: %w after %d iterations", p.Name, ErrJunctionStalled, junctionMaxIter)
}

// TotalVolume sums segment volumes.
func (n *Network) TotalVolume() float64 {
	var v float64
	for _, s := range n.Segments {
		v += s.Volume()
	}
	return v
}
