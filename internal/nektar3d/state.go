package nektar3d

import "fmt"

// State is the serializable part of a Solver: fields and time-integration
// history. The grid is reconstructed from its defining parameters; BC and
// forcing closures are attached by the caller before ApplyState.
type State struct {
	// Grid definition.
	Nex, Ney, Nez, P int
	Lx, Ly, Lz       float64
	PerX, PerY, PerZ bool
	// Solver parameters.
	Nu, Dt float64
	Order  int
	// Fields.
	U, V, W, Pr []float64
	// Time-integration history (nil when no step has run).
	UPrev, VPrev, WPrev       []float64
	ExuPrev, ExvPrev, ExwPrev []float64
	Steps                     int
	Time                      float64
}

// CaptureState deep-copies the resumable state.
func (s *Solver) CaptureState() State {
	cp := func(v []float64) []float64 {
		if v == nil {
			return nil
		}
		return append([]float64(nil), v...)
	}
	g := s.G
	return State{
		Nex: g.Nex, Ney: g.Ney, Nez: g.Nez, P: g.P,
		Lx: g.Lx, Ly: g.Ly, Lz: g.Lz,
		PerX: g.PerX, PerY: g.PerY, PerZ: g.PerZ,
		Nu: s.Nu, Dt: s.Dt, Order: s.Order,
		U: cp(s.U), V: cp(s.V), W: cp(s.W), Pr: cp(s.Pr),
		UPrev: cp(s.uPrev), VPrev: cp(s.vPrev), WPrev: cp(s.wPrev),
		ExuPrev: cp(s.exuPrev), ExvPrev: cp(s.exvPrev), ExwPrev: cp(s.exwPrev),
		Steps: s.Steps, Time: s.Time,
	}
}

// ApplyState overlays a captured state onto a solver whose grid matches the
// checkpoint and whose behavioral hooks (Force, VelBC) are already attached
// — the metasolver restart path: the scenario is rebuilt from code, then the
// checkpointed fields and time-integration history are copied in.
func (s *Solver) ApplyState(st State) error {
	g := s.G
	if g.Nex != st.Nex || g.Ney != st.Ney || g.Nez != st.Nez || g.P != st.P ||
		g.Lx != st.Lx || g.Ly != st.Ly || g.Lz != st.Lz ||
		g.PerX != st.PerX || g.PerY != st.PerY || g.PerZ != st.PerZ {
		return fmt.Errorf("nektar3d: applying state: grid %dx%dx%d p%d (%gx%gx%g) does not match checkpoint %dx%dx%d p%d (%gx%gx%g)",
			g.Nex, g.Ney, g.Nez, g.P, g.Lx, g.Ly, g.Lz,
			st.Nex, st.Ney, st.Nez, st.P, st.Lx, st.Ly, st.Lz)
	}
	n := g.NumNodes()
	for _, f := range [][]float64{st.U, st.V, st.W, st.Pr} {
		if len(f) != n {
			return fmt.Errorf("nektar3d: applying state: field length %d != %d nodes", len(f), n)
		}
	}
	s.Nu, s.Dt, s.Order = st.Nu, st.Dt, st.Order
	copy(s.U, st.U)
	copy(s.V, st.V)
	copy(s.W, st.W)
	copy(s.Pr, st.Pr)
	cp := func(v []float64) []float64 {
		if v == nil {
			return nil
		}
		return append([]float64(nil), v...)
	}
	s.uPrev, s.vPrev, s.wPrev = cp(st.UPrev), cp(st.VPrev), cp(st.WPrev)
	s.exuPrev, s.exvPrev, s.exwPrev = cp(st.ExuPrev), cp(st.ExvPrev), cp(st.ExwPrev)
	s.Steps = st.Steps
	s.Time = st.Time
	return nil
}
