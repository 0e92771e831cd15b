// Integration tests live in an external test package so they can exercise
// the real solver → watchdog → monitor path (nektar3d imports monitor, so
// the in-package tests cannot import it back).
package monitor_test

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"nektarg/internal/monitor"
	"nektarg/internal/mpi"
	"nektarg/internal/nektar3d"
	"nektarg/internal/telemetry"
)

// TestNektar3DNaNInjectionTrips is the acceptance scenario from the issue: a
// nektar3d run with monitoring enabled has a NaN injected into a velocity
// field; the next Step must fail with a guard error instead of silently
// corrupting, the health verdict must flip, and the trip must produce a
// flight-*.json carrying the solver's telemetry.
func TestNektar3DNaNInjectionTrips(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	m := monitor.New(reg, monitor.Options{FlightDir: dir})

	g := must(nektar3d.NewGrid(1, 1, 2, 4, 1, 1, 1, true, true, false))(t)
	s := must(nektar3d.NewSolver(g, 0.1, 0.01))(t)
	s.Rec = reg.NewRecorder("patch:test")
	s.Watch = m.Health().Watch("patch:test")

	// A few healthy steps first: watchdogs observe converged solves.
	for i := 0; i < 3; i++ {
		if err := s.Step(); err != nil {
			t.Fatalf("healthy step %d: %v", i, err)
		}
	}
	if !m.Health().Healthy() {
		t.Fatal("run unhealthy before injection")
	}

	// Inject the corruption the guard exists to catch.
	s.U[len(s.U)/2] = math.NaN()
	err := s.Step()
	if err == nil {
		t.Fatal("Step succeeded on a NaN field")
	}
	if !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("unexpected step error: %v", err)
	}
	if m.Health().Healthy() {
		t.Fatal("NaN guard trip did not flip the verdict")
	}
	v := m.Health().Verdict()
	if v.Status != "unhealthy" || v.Trips == 0 {
		t.Fatalf("verdict = %+v", v)
	}

	dumps := m.Flight().Dumps()
	if len(dumps) != 1 {
		t.Fatalf("flight dumps = %v, want 1", dumps)
	}
	raw, err := os.ReadFile(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	var d monitor.FlightDump
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	if d.Trip == nil || d.Trip.Watchdog != "nan-guard" || d.Trip.Track != "patch:test" {
		t.Fatalf("dump trip = %+v", d.Trip)
	}
	found := false
	for _, tr := range d.Tracks {
		if tr.Track == "patch:test" {
			found = true
			if tr.Stages["ns.step"].Count == 0 || len(tr.Spans) == 0 {
				t.Fatalf("dump track lacks solver telemetry: %+v", tr.Stages)
			}
		}
	}
	if !found {
		t.Fatalf("dump missing the solver's track; tracks = %d", len(d.Tracks))
	}
}

// TestRankPanicDumpsFlight wires mpi.RunHooked's per-rank panic hook to the
// flight recorder: when one rank of a multi-rank run dies, the black box is
// dumped while every rank's recorder is still intact, so the dump carries the
// recent activity of ALL ranks — including the ones that did not crash.
func TestRankPanicDumpsFlight(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	m := monitor.New(reg, monitor.Options{FlightDir: dir})

	const P = 4
	err := mpi.RunHooked(P, func(world *mpi.Comm) {
		rec := reg.NewRecorder("rank" + string(rune('0'+world.Rank())))
		sp := rec.Begin("work")
		sp.End()
		// The barrier orders every rank's span before the panic, so the dump
		// deterministically holds all four tracks' history.
		world.Barrier()
		if world.Rank() == 2 {
			panic("injected rank failure")
		}
	}, func(rank int, recovered any) {
		m.Health().Record("rank-panic", "world", monitor.SevCritical,
			"rank panicked", float64(rank))
	})
	if err == nil || !strings.Contains(err.Error(), "rank 2 panicked") {
		t.Fatalf("RunHooked error = %v", err)
	}

	if m.Health().Healthy() {
		t.Fatal("rank panic did not flip the verdict")
	}
	dumps := m.Flight().Dumps()
	if len(dumps) != 1 {
		t.Fatalf("flight dumps = %v, want 1", dumps)
	}
	raw, err := os.ReadFile(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	var d monitor.FlightDump
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Tracks) != P {
		t.Fatalf("dump carries %d tracks, want every rank (%d)", len(d.Tracks), P)
	}
	for _, tr := range d.Tracks {
		if tr.Stages["work"].Count != 1 {
			t.Fatalf("track %q lost its span history: %+v", tr.Track, tr.Stages)
		}
	}
	if d.Trip == nil || d.Trip.Watchdog != "rank-panic" || d.Trip.Value != 2 {
		t.Fatalf("dump trip = %+v", d.Trip)
	}
}

// must unwraps a constructor's result, failing the test on its error.
func must[T any](v T, err error) func(testing.TB) T {
	return func(t testing.TB) T {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}
