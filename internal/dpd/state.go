package dpd

import (
	"errors"
	"fmt"

	"nektarg/internal/geometry"
)

// State is the serializable part of a System: everything needed to resume a
// run. Behavioral hooks (walls, bonded forces, external forcing, flux-face
// profiles) are code, not data — the caller re-attaches them after Restore.
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
	// same index; RestoreState, which starts without hooks, ignores it.
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

// RestoreState creates a fresh System from a captured state. Hooks (Walls,
// Bonded, External, Inflows) start empty; use AttachInflows to re-attach
// flux faces so their checkpointed insertion accumulators are restored too.
func RestoreState(st State) (*System, error) {
	if err := st.Params.Validate(); err != nil {
		return nil, fmt.Errorf("dpd: restoring: %w", err)
	}
	sys := NewSystem(st.Params, st.Lo, st.Hi, st.Periodic)
	if err := sys.applyCommon(st); err != nil {
		return nil, err
	}
	return sys, nil
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
	s.Params = st.Params
	if err := s.applyCommon(st); err != nil {
		return err
	}
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
	return s.consumePendingFaceAcc()
}

// applyCommon overlays the serialized fields shared by RestoreState and
// ApplyState onto sys; pending face accumulators are stashed for
// AttachInflows (RestoreState) or consumed immediately (ApplyState).
func (s *System) applyCommon(st State) error {
	if st.RNG == nil {
		return ErrNoStreamState
	}
	if err := s.rngSrc.UnmarshalBinary(st.RNG); err != nil {
		return fmt.Errorf("dpd: restoring rng stream: %w", err)
	}
	s.Particles = append(s.Particles[:0], st.Particles...)
	s.Step = st.Step
	s.Time = st.Time
	s.nextID = st.NextID
	s.Inserted = st.Inserted
	s.Deleted = st.Deleted
	if st.FaceAcc != nil {
		s.pendingFaceAcc = append([]float64(nil), st.FaceAcc...)
	} else {
		s.pendingFaceAcc = nil
	}
	return nil
}
