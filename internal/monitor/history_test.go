package monitor

// Monitor-side tests for the performance-history plane wiring: the Go
// runtime gauges every monitor exposes, and the anomaly flight-dump budget
// being independent of the shared watchdog/panic budget. The /history and
// /anomalies routes are tested with the plane attached (planes_test.go).

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"nektarg/internal/telemetry"
)

// TestRuntimeGaugesInMetrics: every monitor serves the Go runtime's health
// gauges on /metrics without any producer wiring — the "is the process
// itself degrading?" half of a slow-run diagnosis.
func TestRuntimeGaugesInMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.NewRecorder("rank0").RecordSpan("s", 0, time.Millisecond, 0, 0)
	m := New(reg, Options{FlightDir: t.TempDir()})
	srv, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck // test cleanup
	body := httpGetBody(t, srv.URL()+"/metrics")
	for _, want := range []string{
		"go_heap_alloc_bytes",
		"go_gc_pause_seconds_total",
		"go_goroutines",
		"process_uptime_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("GET /metrics missing runtime gauge %q", want)
		}
	}
}

// TestAnomalyDumpBudgetIndependent: performance-anomaly flight dumps draw on
// their own cap, so an anomaly cascade can never starve the dump that
// matters most — the watchdog trip or rank panic at the end of the run.
func TestAnomalyDumpBudgetIndependent(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.NewRecorder("rank0").RecordSpan("s", 0, time.Millisecond, 0, 0)
	m := New(reg, Options{FlightDir: t.TempDir()})
	f := m.Flight()

	// Exhaust the shared budget first — anomaly dumps must still land.
	for i := 0; i < DefaultFlightLimit; i++ {
		if path, err := f.Dump("manual", nil); err != nil || path == "" {
			t.Fatalf("shared dump %d: path=%q err=%v", i, path, err)
		}
	}
	if path, _ := f.Dump("manual", nil); path != "" {
		t.Fatal("shared budget not exhausted")
	}
	for i := 0; i < DefaultAnomalyFlightLimit; i++ {
		if path, err := f.DumpAnomaly("perf-anomaly step-time"); err != nil || path == "" {
			t.Fatalf("anomaly dump %d with exhausted shared budget: path=%q err=%v", i, path, err)
		}
	}
	// And the anomaly cap itself still bites.
	if path, err := f.DumpAnomaly("perf-anomaly step-time"); err != nil || path != "" {
		t.Fatalf("anomaly dump past its cap: path=%q err=%v, want silent refusal", path, err)
	}
	if n, a := len(f.Dumps()), len(f.AnomalyDumps()); n != DefaultFlightLimit || a != DefaultAnomalyFlightLimit {
		t.Fatalf("dump ledgers = %d shared / %d anomaly, want %d/%d", n, a, DefaultFlightLimit, DefaultAnomalyFlightLimit)
	}
}

func httpGetBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck // test cleanup
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, b)
	}
	return string(b)
}
