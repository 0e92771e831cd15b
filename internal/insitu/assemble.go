package insitu

import "sort"

// Frame is one causally consistent snapshot: every piece carries the same
// Step; Time is the solver time stamped on the pieces.
type Frame struct {
	Step   int
	Time   float64
	Pieces []*Piece
}

// Sources returns the sorted source labels present in the frame — the
// completeness check observers report next to each frame.
func (f *Frame) Sources() []string {
	out := make([]string, 0, len(f.Pieces))
	for _, p := range f.Pieces {
		out = append(out, p.Source)
	}
	sort.Strings(out)
	return out
}

// AssemblerStats is the frame-assembly accounting exported next to the
// queue's drop counters.
type AssemblerStats struct {
	Frames    int64 `json:"frames"`    // complete frames emitted
	Abandoned int64 `json:"abandoned"` // partial steps discarded by newer arrivals
	Staleness int   `json:"staleness"` // newest published step − last emitted frame step
	LastStep  int   `json:"last_step"` // step of the newest emitted frame
	MaxStep   int   `json:"max_step"`  // newest step observed on any piece
	Pending   int   `json:"pending"`   // steps currently under assembly
}

// Assembler groups pieces by step index into causally consistent frames. A
// frame is emitted when all expected sources have reported for its step; a
// step still under assembly is abandoned (counted, never emitted) once it
// trails the newest observed step by more than the horizon — with DropOldest
// queues under load, old steps lose pieces to eviction and would otherwise
// pend forever. The assembler is single-consumer (the observer goroutine) and
// needs no lock of its own; Stats copies are what concurrent readers see via
// the Observer.
type Assembler struct {
	expected map[string]bool // source labels a complete frame must carry
	horizon  int             // abandon steps trailing MaxStep by more than this
	pending  map[int]map[string]*Piece
	st       AssemblerStats
}

// DefaultHorizon is how many steps a partial frame may trail the newest
// observed piece before it is abandoned. One full stride of slack: pieces of
// step s legitimately interleave with step s+stride under the queue's FIFO,
// but anything older has lost pieces to eviction.
const DefaultHorizon = 2

// NewAssembler creates an assembler expecting the given source labels per
// frame. horizon < 1 takes DefaultHorizon.
func NewAssembler(sources []string, horizon int) *Assembler {
	if horizon < 1 {
		horizon = DefaultHorizon
	}
	exp := make(map[string]bool, len(sources))
	for _, s := range sources {
		exp[s] = true
	}
	return &Assembler{
		expected: exp,
		horizon:  horizon,
		pending:  make(map[int]map[string]*Piece),
	}
}

// Add offers one piece. It returns a completed frame when the piece was the
// last one missing for its step, else nil. Pieces from unexpected sources and
// duplicates (same step, same source — possible when a publisher retries
// after a fault restart) are ignored in favour of the first arrival.
func (a *Assembler) Add(p *Piece) *Frame {
	if p.Step > a.st.MaxStep {
		a.st.MaxStep = p.Step
	}
	a.abandonStale()
	if !a.expected[p.Source] {
		return nil
	}
	if p.Step <= a.st.LastStep && a.st.Frames > 0 {
		// Frame for this step already emitted (or a newer one): a straggler
		// from a re-publish. Never regress the series.
		return nil
	}
	m := a.pending[p.Step]
	if m == nil {
		m = make(map[string]*Piece, len(a.expected))
		a.pending[p.Step] = m
	}
	if _, dup := m[p.Source]; dup {
		return nil
	}
	m[p.Source] = p
	if len(m) < len(a.expected) {
		a.st.Pending = len(a.pending)
		return nil
	}
	// Complete: emit, drop any older partial steps (they can never beat this
	// frame; counting them as abandoned keeps the accounting honest).
	delete(a.pending, p.Step)
	for s := range a.pending {
		if s < p.Step {
			delete(a.pending, s)
			a.st.Abandoned++
		}
	}
	f := &Frame{Step: p.Step}
	for _, pc := range m {
		f.Pieces = append(f.Pieces, pc)
		f.Time = pc.Time
	}
	sort.Slice(f.Pieces, func(i, j int) bool { return f.Pieces[i].Source < f.Pieces[j].Source })
	a.st.Frames++
	a.st.LastStep = p.Step
	a.st.Staleness = a.st.MaxStep - p.Step
	a.st.Pending = len(a.pending)
	return f
}

// abandonStale discards partial steps trailing the newest observed step by
// more than the horizon.
func (a *Assembler) abandonStale() {
	for s := range a.pending {
		if a.st.MaxStep-s > a.horizon {
			delete(a.pending, s)
			a.st.Abandoned++
		}
	}
}

// Stats returns a copy of the assembly accounting. Staleness is refreshed
// against the newest observed step so a stalled assembly line reports its
// true lag even between emitted frames.
func (a *Assembler) Stats() AssemblerStats {
	st := a.st
	if st.Frames > 0 {
		st.Staleness = st.MaxStep - st.LastStep
	} else {
		st.Staleness = st.MaxStep
	}
	st.Pending = len(a.pending)
	return st
}
