// Package checkpoint serializes and restores the resumable state of the
// coupled solvers with encoding/gob: the production-run necessity behind
// multi-day simulations like the paper's (a 131,072-core job cannot restart
// from t = 0 after every queue window). Behavioral hooks — boundary
// condition closures, forcing, bonded models — are code and are re-attached
// by the caller after loading; the physics state round-trips exactly, and a
// restored DPD system continues bit-identically: pairwise random forces are
// counter-based and the stream RNG position, flux-face insertion
// accumulators and the state of stateful bonded models (platelet activation
// clocks) are part of dpd.State.
//
// Atomic, crash-safe persistence (tmp + fsync + rename, retention pruning,
// last-good scanning) lives in store.go; the periodic write/resume driver is
// core.Checkpointer.
package checkpoint

import (
	"encoding/gob"
	"fmt"
	"io"

	"nektarg/internal/audit"
	"nektarg/internal/dpd"
	"nektarg/internal/history"
	"nektarg/internal/nektar1d"
	"nektarg/internal/nektar3d"
)

// Coupled bundles the state of one coupled simulation: any number of
// continuum patches, atomistic regions and 1D peripheral networks plus
// exchange bookkeeping.
type Coupled struct {
	// Version guards the on-disk format. NewCoupled sets it to
	// FormatVersion; Save rejects bundles whose version it does not know how
	// to write (and never mutates the caller's bundle).
	Version int
	// Exchanges is the metasolver's completed exchange count.
	Exchanges int
	// Patches holds the continuum solver states, keyed by patch name.
	Patches map[string]nektar3d.State
	// Regions holds the DPD system states, keyed by region name.
	Regions map[string]dpd.State
	// Networks holds the NεκTαr-1D network states — per-segment (A, U)
	// arrays and windkessel outlet pressures — keyed by network name.
	Networks map[string]nektar1d.NetworkState
	// Audit holds the physics audit ledger — per-budget EMAs, drift
	// references/baselines and latched severities — so conservation
	// budgets stay bit-exact across kill -9 and a pre-checkpoint slow
	// leak stays on the books after resume. Nil in runs with the audit
	// plane disabled.
	Audit *audit.State
	// History holds the performance-history plane — series rings,
	// downsample tiers and anomaly baselines — so a resumed run keeps its
	// notion of "normal" step time and CG cost instead of re-learning it
	// from post-restart samples. Nil in runs with the history plane
	// disabled.
	History *history.State
}

// FormatVersion is the one checkpoint format Save writes and Load accepts
// (v5: bonded-model state inside dpd.State). A bundle at any other version
// is rejected: the state it lacks cannot be reconstructed, and a resume that
// silently zeroes it is not bit-identical.
const FormatVersion = 5

// NewCoupled creates an empty bundle at the current format version.
func NewCoupled() *Coupled {
	return &Coupled{
		Version:  FormatVersion,
		Patches:  map[string]nektar3d.State{},
		Regions:  map[string]dpd.State{},
		Networks: map[string]nektar1d.NetworkState{},
	}
}

// Save writes the bundle as a gob stream. It is side-effect-free: the bundle
// is not mutated, and a bundle whose Version is unset or unknown is a
// validation error rather than something Save silently "fixes" (the old
// behaviour stamped FormatVersion onto the caller's struct, so two Saves of
// one bundle could disagree about what had been written).
func Save(w io.Writer, c *Coupled) error {
	if c == nil {
		return fmt.Errorf("checkpoint: encode: nil bundle")
	}
	if c.Version != FormatVersion {
		return fmt.Errorf("checkpoint: encode: bundle version %d, can only write %d (NewCoupled sets it)",
			c.Version, FormatVersion)
	}
	if err := gob.NewEncoder(w).Encode(c); err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	return nil
}

// Load reads a bundle written by Save. Any version other than FormatVersion
// — including zero, the signature of a bundle that was never initialized —
// is an error. Maps are materialized empty so callers can range without nil
// checks; the Audit and History pointers stay nil when the planes were off.
func Load(r io.Reader) (*Coupled, error) {
	var c Coupled
	if err := gob.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	if c.Version != FormatVersion {
		return nil, fmt.Errorf("checkpoint: format version %d, want %d", c.Version, FormatVersion)
	}
	if c.Patches == nil {
		c.Patches = map[string]nektar3d.State{}
	}
	if c.Regions == nil {
		c.Regions = map[string]dpd.State{}
	}
	if c.Networks == nil {
		c.Networks = map[string]nektar1d.NetworkState{}
	}
	return &c, nil
}
