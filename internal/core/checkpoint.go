package core

// Checkpoint capture/restore for the metasolver, plus the periodic-write
// driver. The paper's headline run — 131,072 cores coupling NεκTαr-3D
// patches, DPD regions and 1D peripheral networks for days — only exists as
// a production workflow because it can resume from its last checkpoint after
// a queue window or a rank failure. The split of responsibilities:
//
//   - internal/checkpoint owns the serialized format and the atomic,
//     checksummed on-disk store;
//   - CaptureCheckpoint/RestoreCheckpoint (here) map between the live,
//     fully-wired metasolver and a checkpoint.Coupled bundle — restore is
//     in-place, overlaying physics state onto hooks the caller rebuilt from
//     code, so no closure ever needs to serialize;
//   - Checkpointer drives periodic atomic writes and resume-from-latest;
//   - the recover-and-resume loop (recovery.go) closes the loop under
//     faults, for one process and for every rank of a world alike.

import (
	"fmt"
	"log/slog"
	"sort"

	"nektarg/internal/checkpoint"
	"nektarg/internal/fleet"
	"nektarg/internal/nektar1d"
)

// CaptureCheckpoint snapshots the full coupled state — every continuum
// patch, every atomistic region (including the DPD stream-RNG position,
// flux-face insertion accumulators and bonded-model state), the named 1D peripheral networks, and
// the exchange count — into a version-stamped bundle ready for
// checkpoint.Save or a Store write. networks may be nil.
func (m *Metasolver) CaptureCheckpoint(networks map[string]*nektar1d.Network) *checkpoint.Coupled {
	sp := m.rec.Begin("meta.checkpoint.capture")
	defer sp.End()
	c := checkpoint.NewCoupled()
	c.Exchanges = m.Exchanges
	for _, p := range m.Patches {
		c.Patches[p.Name] = p.Solver.CaptureState()
	}
	for _, a := range m.Atomistic {
		c.Regions[a.Name] = a.Sys.CaptureState()
	}
	for name, net := range networks {
		c.Networks[name] = net.CaptureState()
	}
	// The audit ledger rides along so conservation budgets (EMAs, drift
	// baselines, latched severities) stay bit-exact across kill -9; nil
	// when the audit plane is disabled.
	c.Audit = m.aud.CaptureState()
	// So does the performance history: series rings and anomaly baselines
	// survive restart, so a regression that began before the checkpoint
	// stays on the books; nil when the history plane is disabled.
	c.History = m.hist.CaptureState()
	return c
}

// RestoreCheckpoint overlays a loaded bundle onto this metasolver's live
// wiring: patches, regions and networks are matched by name and must agree
// exactly with the bundle (a missing or extra name is a configuration
// mismatch, not something to skip silently).
func (m *Metasolver) RestoreCheckpoint(c *checkpoint.Coupled, networks map[string]*nektar1d.Network) error {
	// Validate the name sets both ways before mutating anything.
	patches := map[string]*ContinuumPatch{}
	for _, p := range m.Patches {
		patches[p.Name] = p
	}
	regions := map[string]*AtomisticRegion{}
	for _, a := range m.Atomistic {
		regions[a.Name] = a
	}
	if err := matchNames("patch", keysOf(c.Patches), keysOf(patches)); err != nil {
		return err
	}
	if err := matchNames("region", keysOf(c.Regions), keysOf(regions)); err != nil {
		return err
	}
	if err := matchNames("network", keysOf(c.Networks), keysOf(networks)); err != nil {
		return err
	}

	for name, st := range c.Patches {
		if err := patches[name].Solver.ApplyState(st); err != nil {
			return fmt.Errorf("core: restoring patch %q: %w", name, err)
		}
	}
	for name, st := range c.Regions {
		if err := regions[name].Sys.ApplyState(st); err != nil {
			return fmt.Errorf("core: restoring region %q: %w", name, err)
		}
	}
	for name, st := range c.Networks {
		if err := networks[name].ApplyState(st); err != nil {
			return fmt.Errorf("core: restoring network %q: %w", name, err)
		}
	}
	m.Exchanges = c.Exchanges
	// Overlay the ledger last: restoring an older, clean ledger state is
	// what un-latches an audit critical that postdates the checkpoint
	// (RearmWatchdogs deliberately leaves the ledger alone — ApplyState is
	// the last word on its latches). An audit-disabled capture carries nil
	// and leaves the live ledger to re-seed its drift baselines from the
	// restored physics.
	m.aud.ApplyState(c.Audit)
	// Same overlay discipline for the performance history: a
	// history-disabled capture carries nil and leaves the live plane to
	// re-warm its baselines from post-restore samples.
	m.hist.ApplyState(c.History)
	return nil
}

// matchNames asserts two name sets are identical, reporting the first
// difference deterministically.
func matchNames(kind string, bundle, wired []string) error {
	sort.Strings(bundle)
	sort.Strings(wired)
	if len(bundle) != len(wired) {
		return fmt.Errorf("core: checkpoint has %d %s name(s) %v but the metasolver wires %d %v",
			len(bundle), kind, bundle, len(wired), wired)
	}
	for i := range bundle {
		if bundle[i] != wired[i] {
			return fmt.Errorf("core: checkpoint %s %q does not match wired %s %q",
				kind, bundle[i], kind, wired[i])
		}
	}
	return nil
}

func keysOf[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// Checkpointer drives periodic atomic checkpoints of one metasolver into a
// checkpoint.Store, and resume-from-latest. It is the glue cmd/nektarg's
// -checkpoint-every / -checkpoint-dir / -resume flags configure.
type Checkpointer struct {
	Meta *Metasolver
	// Networks are the named 1D peripheral trees riding along in every
	// bundle (nil when the scenario has none).
	Networks map[string]*nektar1d.Network
	// Store is the managed checkpoint directory.
	Store *checkpoint.Store
	// Every is the checkpoint period in completed exchanges; <= 0 disables
	// periodic writes (Checkpoint can still be called manually).
	Every int
	// Journal, when non-nil, receives a checkpoint-commit record for every
	// successfully written bundle.
	Journal *fleet.Journal
	// Log is the optional structured logger.
	Log *slog.Logger
}

// Checkpoint captures and atomically persists the current state, returning
// the written path.
func (ck *Checkpointer) Checkpoint() (string, error) {
	sp := ck.Meta.rec.Begin("meta.checkpoint")
	defer sp.End()
	c := ck.Meta.CaptureCheckpoint(ck.Networks)
	path, err := ck.Store.Write(c)
	if err != nil {
		return "", err
	}
	ck.Journal.Record(fleet.EventCheckpoint, map[string]any{
		"path":     path,
		"exchange": c.Exchanges,
	})
	if ck.Log != nil {
		ck.Log.Info("checkpoint written", "path", path, "exchange", c.Exchanges)
	}
	return path, nil
}

// MaybeCheckpoint writes a checkpoint when the metasolver's exchange count
// has reached a multiple of Every. Call it after each completed exchange.
func (ck *Checkpointer) MaybeCheckpoint() error {
	if ck.Every <= 0 || ck.Meta.Exchanges == 0 || ck.Meta.Exchanges%ck.Every != 0 {
		return nil
	}
	_, err := ck.Checkpoint()
	return err
}

// Resume loads the newest good checkpoint from the store and overlays it
// onto the live wiring, returning the path it resumed from.
func (ck *Checkpointer) Resume() (string, error) {
	path, c, err := ck.Store.Latest()
	if err != nil {
		return "", err
	}
	return path, ck.restore(path, c)
}

// restore overlays a loaded bundle and re-arms the watchdogs: the restored
// state predates whatever tripped them, so a recurrence after resume must
// transition (and be seen) again.
func (ck *Checkpointer) restore(path string, c *checkpoint.Coupled) error {
	if err := ck.Meta.RestoreCheckpoint(c, ck.Networks); err != nil {
		return fmt.Errorf("core: resuming from %s: %w", path, err)
	}
	ck.Meta.RearmWatchdogs()
	if ck.Log != nil {
		ck.Log.Info("resumed from checkpoint", "path", path, "exchange", c.Exchanges)
	}
	return nil
}
