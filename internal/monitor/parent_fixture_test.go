package monitor

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"nektarg/internal/telemetry"
)

// parentFixture is the fixed registry behind the byte-for-byte fixtures in
// testdata/parent_*.golden, which were recorded from the commit before the
// cluster aggregate became one merge rule. Tracks are created out of name
// order, durations are not dyadic, one stage lives on a single track and
// "meta.wait" ties exactly between the first two tracks, so the fixtures pin
// the summation order, the straggler tie rule (first track wins) and the
// sorting as well as the arithmetic.
func parentFixture() *telemetry.Registry {
	reg := telemetry.NewRegistry()
	b := reg.NewRecorder("patch:B")
	a := reg.NewRecorder("patch:A")
	d := reg.NewRecorder("dpd:fundus")
	ms := time.Millisecond
	b.RecordSpan("ns.step", 0, 137*ms, 0, 3)
	b.RecordSpan("ns.step", 200*ms, 151*ms, 3, 7)
	b.RecordSpan("meta.wait", 400*ms, 33*ms, 7, 7)
	a.RecordSpan("ns.step", 0, 411*ms, 0, 5)
	a.RecordSpan("meta.wait", 420*ms, 33*ms, 5, 6)
	a.RecordSpan("meta.exchange", 460*ms, 7*ms, 6, 11)
	d.RecordSpan("dpd.step", 0, 1903*time.Microsecond, 0, 0)
	d.RecordSpan("dpd.step", 2*ms, 2101*time.Microsecond, 0, 0)
	d.RecordSpan("meta.exchange", 460*ms, 19*ms, 0, 2)
	b.Gauge("cg_iterations", 1)
	a.Gauge("cg_iterations", 3)
	d.Gauge("particles", 3550)
	b.CountMessage(telemetry.LevelL4, telemetry.OpCoupling, 4096)
	a.CountMessage(telemetry.LevelL4, telemetry.OpCoupling, 512)
	d.CountMessage(telemetry.LevelWorld, telemetry.OpAllreduce, 8)
	return reg
}

// TestImbalanceMatchesParentFixtures asserts the /imbalance table and the
// flight dump's imbalance section byte-for-byte against what the parent
// commit produced for parentFixture.
func TestImbalanceMatchesParentFixtures(t *testing.T) {
	reg := parentFixture()
	m := New(reg, Options{FlightDir: t.TempDir()})

	checkGolden(t, "parent_imbalance_table.golden", []byte(FormatImbalanceTable(m.Imbalance())))

	path, err := m.Flight().Dump("manual", nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Imbalance json.RawMessage `json:"imbalance"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "parent_flight_imbalance.golden", doc.Imbalance)
}

// checkGolden compares got with testdata/name. These files are recordings of
// the parent commit, so -update does not rewrite them.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from the parent's bytes.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}
