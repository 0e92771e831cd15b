package core

// Hostile input for the restart path: every restart of the recover-and-resume
// loop reads a bundle back from disk and overlays it onto live wiring, so a
// torn, flipped or foreign file must come back as an error — or as a
// restored state — never as a panic.

import (
	"bytes"
	"testing"

	"nektarg/internal/checkpoint"
	"nektarg/internal/dpd"
	"nektarg/internal/geometry"
	"nektarg/internal/nektar1d"
	"nektarg/internal/nektar3d"
)

// smallWiring is the metasolver the fuzz target restores onto: one order-2
// patch, a DPD region fed through a flux face and a one-segment 1D network,
// each stepped once so every state field a bundle carries is populated — all
// three solvers in a bundle of a few kilobytes.
func smallWiring(tb testing.TB) (*Metasolver, map[string]*nektar1d.Network) {
	tb.Helper()
	g := nektar3d.NewGrid(1, 1, 1, 2, 1, 1, 1, false, true, false)
	sv := nektar3d.NewSolver(g, 0.5, 0.01)
	if err := sv.Run(1); err != nil {
		tb.Fatal(err)
	}
	p := dpd.DefaultParams(1)
	p.Seed = 7
	sys := dpd.NewSystem(p, geometry.Vec3{}, geometry.Vec3{X: 2, Y: 2, Z: 2}, [3]bool{false, true, true})
	sys.Inflows = []*dpd.FluxBC{{Axis: 0, Rho: 3}}
	sys.FillRandom(12, 0)
	sys.Run(2)

	net := &nektar1d.Network{}
	seg := net.AddSegment(nektar1d.NewSegment("s", 1, 4, 0.5, 4e4, 1.06, 8))
	net.Outlets = append(net.Outlets, &nektar1d.Outlet{Seg: seg, WK: nektar1d.NewWindkessel(100, 1e-4)})

	m := NewMetasolver()
	m.Patches = []*ContinuumPatch{NewContinuumPatch("A", sv, geometry.Vec3{})}
	m.Atomistic = []*AtomisticRegion{{Name: "r", Sys: sys}}
	return m, map[string]*nektar1d.Network{"net": net}
}

// FuzzRestoreCheckpoint takes arbitrary bytes through checkpoint.Load and
// Metasolver.RestoreCheckpoint. Seeds (testdata/fuzz/FuzzRestoreCheckpoint):
// smallWiring's own bundle, and the truncations, byte flips and foreign
// versions of TestCorruptionTable applied to it.
func FuzzRestoreCheckpoint(f *testing.F) {
	// The one positive case: the wiring's own bundle restores.
	m, nets := smallWiring(f)
	var buf bytes.Buffer
	if err := checkpoint.Save(&buf, m.CaptureCheckpoint(nets)); err != nil {
		f.Fatal(err)
	}
	c, err := checkpoint.Load(&buf)
	if err == nil {
		err = m.RestoreCheckpoint(c, nets)
	}
	if err != nil {
		f.Fatalf("the wiring's own bundle does not restore: %v", err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := checkpoint.Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		m, nets := smallWiring(t)
		_ = m.RestoreCheckpoint(c, nets) // an error or a restored state; a panic fails
	})
}
