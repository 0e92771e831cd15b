package telemetry

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// TestSummaryMatchesParentFixture asserts the -telemetry-out document
// (WriteSummary) byte-for-byte, wall-clock stamp aside, against what the
// commit before the cluster aggregate became one merge rule wrote for the
// same registry: tracks created out of name order, non-dyadic durations, a
// stage on one track only and an exact tie.
func TestSummaryMatchesParentFixture(t *testing.T) {
	reg := NewRegistry()
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
	a.Gauge("cg_iterations", 2)
	d.Gauge("particles", 3550)
	b.CountMessage(LevelL4, OpCoupling, 4096)
	a.CountMessage(LevelL4, OpCoupling, 512)
	d.CountMessage(LevelWorld, OpAllreduce, 8)

	var buf bytes.Buffer
	if err := WriteSummary(&buf, reg.Recorders()); err != nil {
		t.Fatal(err)
	}
	got := regexp.MustCompile(`"written": "[^"]*"`).ReplaceAll(buf.Bytes(), []byte(`"written": "-"`))
	golden := filepath.Join("testdata", "parent_summary.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("telemetry summary drifted from the parent's bytes.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
