// Package platelet implements the platelet aggregation model the paper
// adapts from Pivkin, Richardson & Karniadakis (PNAS 2006) to simulate
// thrombus formation in the aneurysm (Figure 10): platelets are spherical
// DPD particles in two states — passive and activated ("triggered").
// A passive platelet becomes activated after spending the activation delay
// time near the injury site or near an activated platelet; activated
// platelets attract each other and the adhesive wall patch through a Morse
// potential, building a growing clot.
package platelet

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"nektarg/internal/dpd"
	"nektarg/internal/geometry"
)

// State is the activation state of one platelet.
type State int

// Platelet activation states.
const (
	Passive State = iota
	Triggered
	Adhered // triggered and currently bound to the clot
)

// Model tracks platelet state and applies adhesive forces. It implements
// dpd.BondedForce.
type Model struct {
	// Species identifies platelet particles in the DPD system.
	Species int
	// Sites are the adhesion sites on the damaged wall (the clot seed).
	Sites []geometry.Vec3

	// ActivationDelay is Pivkin's τ_act: time a passive platelet must stay
	// within ContactRange of the clot before it activates.
	ActivationDelay float64
	// ContactRange is the distance within which contact accrues and
	// adhesive forces act.
	ContactRange float64

	// Morse potential parameters for adhesion: U = De (1 - exp(-beta (r -
	// r0)))² - De; force is attractive beyond r0, repulsive inside.
	De, Beta, R0 float64

	// per-platelet bookkeeping, keyed by particle ID.
	recs  map[int64]record
	lastT float64

	// AddForces' per-step scratch: the live platelets and the clot anchors.
	// Rebuilt every call, so it stays out of CaptureState.
	platelets []plateletRef
	anchors   []geometry.Vec3
}

// plateletRef locates one live platelet: its index in the system's particle
// slice and its particle ID.
type plateletRef struct {
	idx int
	id  int64
}

// record is one platelet's activation state and accumulated contact time.
type record struct {
	state   State
	contact float64
}

var _ dpd.StatefulBonded = (*Model)(nil)

// NewModel creates a platelet model with Pivkin-like defaults.
func NewModel(species int, sites []geometry.Vec3, activationDelay float64) *Model {
	if len(sites) == 0 {
		panic("platelet: need at least one adhesion site")
	}
	return &Model{
		Species:         species,
		Sites:           sites,
		ActivationDelay: activationDelay,
		ContactRange:    1.0,
		De:              15,
		Beta:            2,
		R0:              0.6,
		recs:            map[int64]record{},
	}
}

// CaptureState implements dpd.StatefulBonded: the activation clock origin,
// then one (id, state, contact time) record per tracked platelet, sorted by
// particle ID so equal models encode to equal bytes.
func (m *Model) CaptureState() []byte {
	ids := make([]int64, 0, len(m.recs))
	for id := range m.recs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	b := binary.LittleEndian.AppendUint64(make([]byte, 0, 8+24*len(ids)), math.Float64bits(m.lastT))
	for _, id := range ids {
		b = binary.LittleEndian.AppendUint64(b, uint64(id))
		b = binary.LittleEndian.AppendUint64(b, uint64(m.recs[id].state))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.recs[id].contact))
	}
	return b
}

// ApplyState implements dpd.StatefulBonded, replacing the model's
// bookkeeping with a CaptureState encoding.
func (m *Model) ApplyState(b []byte) error {
	if len(b) < 8 || (len(b)-8)%24 != 0 {
		return fmt.Errorf("platelet: state is %d bytes, want 8 + 24 per platelet", len(b))
	}
	recs := make(map[int64]record, (len(b)-8)/24)
	for r := b[8:]; len(r) > 0; r = r[24:] {
		id := int64(binary.LittleEndian.Uint64(r))
		st := State(binary.LittleEndian.Uint64(r[8:]))
		if st < Passive || st > Adhered {
			return fmt.Errorf("platelet: state: platelet %d in unknown state %d", id, st)
		}
		recs[id] = record{st, math.Float64frombits(binary.LittleEndian.Uint64(r[16:]))}
	}
	m.lastT = math.Float64frombits(binary.LittleEndian.Uint64(b))
	m.recs = recs
	return nil
}

// StateOf returns the current state of the platelet with the given particle
// ID.
func (m *Model) StateOf(id int64) State { return m.recs[id].state }

// Counts returns the number of platelets in each state.
func (m *Model) Counts(sys *dpd.System) (passive, triggered, adhered int) {
	for i := range sys.Particles {
		p := &sys.Particles[i]
		if p.Species != m.Species || p.Frozen {
			continue
		}
		switch m.recs[p.ID].state {
		case Triggered:
			triggered++
		case Adhered:
			adhered++
		default:
			passive++
		}
	}
	return passive, triggered, adhered
}

// ClotSize returns the number of adhered platelets: the Figure 10 growth
// metric.
func (m *Model) ClotSize(sys *dpd.System) int {
	_, _, adhered := m.Counts(sys)
	return adhered
}

// morseForce returns the magnitude of the radial Morse force at distance r
// (positive = attraction toward the partner).
func (m *Model) morseForce(r float64) float64 {
	e := math.Exp(-m.Beta * (r - m.R0))
	// dU/dr = 2 De beta e (1 - e); force toward partner = -dU/dr reversed:
	// attractive (positive) when r > r0.
	return 2 * m.De * m.Beta * e * (1 - e)
}

// AddForces implements dpd.BondedForce: updates activation clocks and adds
// adhesive forces.
func (m *Model) AddForces(sys *dpd.System) {
	dt := sys.Time - m.lastT
	if dt < 0 {
		dt = 0
	}
	m.lastT = sys.Time

	// Collect platelets and the positions of current clot anchors
	// (adhesion sites + adhered/triggered platelets).
	platelets := m.platelets[:0]
	anchors := append(m.anchors[:0], m.Sites...)
	for i := range sys.Particles {
		p := &sys.Particles[i]
		if p.Species != m.Species || p.Frozen {
			continue
		}
		platelets = append(platelets, plateletRef{i, p.ID})
		if m.recs[p.ID].state != Passive {
			anchors = append(anchors, p.Pos)
		}
	}
	m.platelets, m.anchors = platelets, anchors

	for _, pl := range platelets {
		p := &sys.Particles[pl.idx]
		// Nearest anchor distance.
		near := math.Inf(1)
		var nearest geometry.Vec3
		for _, a := range anchors {
			if d := p.Pos.Dist(a); d < near && d > 1e-12 {
				near = d
				nearest = a
			}
		}
		rec := m.recs[pl.id]
		switch rec.state {
		case Passive:
			if near <= m.ContactRange {
				rec.contact += dt
				if rec.contact >= m.ActivationDelay {
					rec.state = Triggered
				}
			} else {
				rec.contact = 0 // contact must be sustained
			}
		case Triggered, Adhered:
			if near <= m.ContactRange {
				rec.state = Adhered
				// Morse adhesion toward the nearest anchor.
				dir := nearest.Sub(p.Pos)
				r := dir.Norm()
				if r > 1e-12 {
					f := m.morseForce(r)
					p.F = p.F.Add(dir.Scale(f / r))
				}
			} else {
				rec.state = Triggered
			}
		}
		m.recs[pl.id] = rec
	}
}

// SeedPlatelets inserts n platelets at random positions in the sub-box
// [lo, hi] of the system.
func SeedPlatelets(sys *dpd.System, m *Model, n int, lo, hi geometry.Vec3, rng func() float64) []int {
	if n < 0 {
		panic(fmt.Sprintf("platelet: n = %d", n))
	}
	sz := hi.Sub(lo)
	idx := make([]int, 0, n)
	for i := 0; i < n; i++ {
		pos := geometry.Vec3{
			X: lo.X + rng()*sz.X,
			Y: lo.Y + rng()*sz.Y,
			Z: lo.Z + rng()*sz.Z,
		}
		idx = append(idx, sys.AddParticle(pos, geometry.Vec3{}, m.Species, false))
	}
	return idx
}
