package monitor

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"nektarg/internal/telemetry"
)

func serveMonitor(t *testing.T, m *Monitor) func(string) (int, []byte, string) {
	t.Helper()
	srv, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return func(path string) (int, []byte, string) {
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body, resp.Header.Get("Content-Type")
	}
}

// TestBuildinfoEndpoint: /buildinfo serves the provenance JSON with the
// fields flight dumps and scrapes are attributed by.
func TestBuildinfoEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := New(reg, Options{})
	get := serveMonitor(t, m)
	code, body, ctype := get("/buildinfo")
	if code != http.StatusOK || ctype != "application/json" {
		t.Fatalf("/buildinfo = %d %q", code, ctype)
	}
	var bi BuildInfo
	if err := json.Unmarshal(body, &bi); err != nil {
		t.Fatalf("/buildinfo not valid JSON: %v\n%s", err, body)
	}
	if bi.GoVersion == "" || bi.OS == "" || bi.Arch == "" {
		t.Fatalf("buildinfo incomplete: %+v", bi)
	}
	if s := ReadBuildInfo().String(); s == "" {
		t.Fatal("BuildInfo.String() empty")
	}
}

// TestFlightLimitConfigurable pins the flight cap as a recorder is configured
// now: Options carry no limit, so a monitor built from Options{FlightDir}
// writes DefaultFlightLimit dumps and refuses the next, and each dump embeds
// the in-situ drop accounting the observer's track carries.
func TestFlightLimitConfigurable(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	reg.NewRecorder("rank0").RecordSpan("s", 0, time.Millisecond, 0, 0)
	obs := reg.NewRecorder("observer")
	obs.Gauge("insitu.published", 9)
	obs.Gauge("insitu.dropped", 2)
	m := New(reg, Options{FlightDir: dir})

	var paths []string
	for i := 0; i < DefaultFlightLimit; i++ {
		path, err := m.Flight().Dump("manual", nil)
		if err != nil || path == "" {
			t.Fatalf("dump %d: path=%q err=%v", i, path, err)
		}
		paths = append(paths, path)
	}
	if p, err := m.Flight().Dump("manual", nil); err != nil || p != "" {
		t.Fatalf("dump past DefaultFlightLimit %d: path=%q err=%v, want silent refusal", DefaultFlightLimit, p, err)
	}

	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var d FlightDump
		if err := json.Unmarshal(raw, &d); err != nil {
			t.Fatal(err)
		}
		var published, dropped float64
		for _, tr := range d.Tracks {
			if tr.Track == "observer" {
				published, dropped = tr.Gauges["insitu.published"].Last, tr.Gauges["insitu.dropped"].Last
			}
		}
		if published != 9 || dropped != 2 {
			t.Fatalf("%s observer track = published %g dropped %g, want the drop accounting 9/2 embedded", path, published, dropped)
		}
	}
}

// TestHealthRearmHTTP pins the re-arm watermark through the HTTP surface:
// trip -> 503, Rearm -> 200 again, while the trip counter stays monotonic
// for Prometheus and the rearm is visible in both the verdict and /metrics.
func TestHealthRearmHTTP(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.NewRecorder("rank0").RecordSpan("s", 0, time.Millisecond, 0, 0)
	// Critical records auto-fire flight dumps; keep them out of the package
	// directory (an empty FlightDir means ".").
	m := New(reg, Options{FlightDir: t.TempDir()})
	get := serveMonitor(t, m)

	if code, _, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz healthy = %d", code)
	}
	m.Health().Record("test-guard", "rank0", SevCritical, "injected trip", 1)
	code, body, _ := get("/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz after trip = %d, want 503", code)
	}
	var v Verdict
	if err := json.Unmarshal(body, &v); err != nil || v.Healthy || v.Trips != 1 || v.Cleared != 0 {
		t.Fatalf("tripped verdict = %s (err %v)", body, err)
	}

	m.Health().Rearm()
	code, body, _ = get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz after rearm = %d, want 200", code)
	}
	if err := json.Unmarshal(body, &v); err != nil || !v.Healthy || v.Trips != 1 || v.Cleared != 1 || v.Rearms != 1 {
		t.Fatalf("re-armed verdict = %s (err %v)", body, err)
	}

	_, mb, _ := get("/metrics")
	for _, want := range []string{
		"nektarg_health_healthy 1",
		"nektarg_health_trips_total 1", // monotonic: re-arm never rewinds it
		"nektarg_health_rearms_total 1",
	} {
		if !strings.Contains(string(mb), want) {
			t.Fatalf("metrics after rearm missing %q:\n%s", want, mb)
		}
	}

	// A fresh trip after re-arm flips back to 503: the latch still works.
	m.Health().Record("test-guard", "rank0", SevCritical, "second trip", 1)
	if code, _, _ := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz after second trip = %d, want 503", code)
	}
}
