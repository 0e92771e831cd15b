package dpd

import (
	"errors"
	"fmt"

	"nektarg/internal/geometry"
)

// State is the serializable part of a System: everything needed to resume a
// run. Behavioral hooks (walls, bonded forces, external forcing, flux-face
// profiles) are code, not data — the caller wires them before ApplyState.
// Because pairwise random forces are counter-based (seed, step, particle
// ids) and the stream RNG position, the flux-face fractional-insertion
// accumulators and the state of every StatefulBonded model are captured, a
// restored system — closed or open — continues bit-identically.
type State struct {
	Params    Params
	Lo, Hi    geometry.Vec3
	Periodic  [3]bool
	Particles []Particle
	Step      int
	Time      float64
	NextID    int64

	// RNG is the serialized position of the stream random source (PCG).
	// A state without one is rejected with ErrNoStreamState.
	RNG []byte
	// FaceAcc holds the fractional-insertion accumulator of each flux face
	// in Inflows order.
	FaceAcc []float64
	// Bonded holds, in System.Bonded order, the encoding of each
	// StatefulBonded model (empty for stateless ones); nil when the system
	// has none. ApplyState hands each entry back to the model wired at the
	// same index.
	Bonded [][]byte
	// Inserted and Deleted are the cumulative open-boundary particle
	// counters (telemetry continuity across restarts).
	Inserted, Deleted int64
}

// ErrNoStreamState is returned (wrapped) when a State carries no RNG stream
// position: reseeding would replay the insertion stream from zero.
var ErrNoStreamState = errors.New("dpd: state carries no RNG stream position")

// CaptureState deep-copies the resumable state, including the stream RNG
// position, per-face insertion accumulators and bonded-model state.
func (s *System) CaptureState() State {
	rngBytes, err := s.rngSrc.MarshalBinary()
	if err != nil {
		// PCG.MarshalBinary cannot fail; keep the capture total anyway.
		rngBytes = nil
	}
	var acc []float64
	if len(s.Inflows) > 0 {
		acc = make([]float64, len(s.Inflows))
		for i, f := range s.Inflows {
			acc[i] = f.Acc
		}
	}
	var bonded [][]byte
	for i, b := range s.Bonded {
		if sb, ok := b.(StatefulBonded); ok {
			if bonded == nil {
				bonded = make([][]byte, len(s.Bonded))
			}
			bonded[i] = sb.CaptureState()
		}
	}
	return State{
		Params:    s.Params,
		Lo:        s.Lo,
		Hi:        s.Hi,
		Periodic:  s.Periodic,
		Particles: append([]Particle(nil), s.Particles...),
		Step:      s.Step,
		Time:      s.Time,
		NextID:    s.nextID,
		RNG:       rngBytes,
		FaceAcc:   acc,
		Bonded:    bonded,
		Inserted:  s.Inserted,
		Deleted:   s.Deleted,
	}
}

// ApplyState restores a captured state in place, into a system whose hooks
// (walls, bonded models, flux faces) are already wired — the restart path of
// the metasolver, which rebuilds the scenario from code and then overlays
// the checkpointed physics state. The box geometry must match; flux-face
// accumulators are applied directly to the attached Inflows and bonded-model
// state to the attached StatefulBonded models.
func (s *System) ApplyState(st State) error {
	if err := st.Params.Validate(); err != nil {
		return fmt.Errorf("dpd: applying state: %w", err)
	}
	if st.Lo != s.Lo || st.Hi != s.Hi || st.Periodic != s.Periodic {
		return fmt.Errorf("dpd: applying state: box %v..%v periodic %v does not match checkpoint %v..%v %v",
			s.Lo, s.Hi, s.Periodic, st.Lo, st.Hi, st.Periodic)
	}
	if st.RNG == nil {
		return ErrNoStreamState
	}
	if err := s.rngSrc.UnmarshalBinary(st.RNG); err != nil {
		return fmt.Errorf("dpd: restoring rng stream: %w", err)
	}
	for i := range st.Particles {
		if sp := st.Particles[i].Species; sp < 0 || sp >= len(st.Params.A) {
			return fmt.Errorf("dpd: applying state: particle %d species %d of %d", i, sp, len(st.Params.A))
		}
	}
	s.Params = st.Params
	s.Particles = append(s.Particles[:0], st.Particles...)
	s.err = nil
	s.Step = st.Step
	s.Time = st.Time
	s.nextID = st.NextID
	s.Inserted = st.Inserted
	s.Deleted = st.Deleted
	for i, b := range s.Bonded {
		sb, ok := b.(StatefulBonded)
		if !ok {
			continue
		}
		if i >= len(st.Bonded) || len(st.Bonded[i]) == 0 {
			return fmt.Errorf("dpd: applying state: checkpoint carries no state for bonded model %d", i)
		}
		if err := sb.ApplyState(st.Bonded[i]); err != nil {
			return fmt.Errorf("dpd: applying state: bonded model %d: %w", i, err)
		}
	}
	if st.FaceAcc == nil {
		return nil
	}
	if len(st.FaceAcc) != len(s.Inflows) {
		return fmt.Errorf("dpd: checkpoint carries %d flux-face accumulators but %d faces are attached",
			len(st.FaceAcc), len(s.Inflows))
	}
	for i, f := range s.Inflows {
		f.Acc = st.FaceAcc[i]
	}
	return nil
}
