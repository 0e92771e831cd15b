package monitor_test

// The planes the monitor serves, attached through the one seam they share:
// each route answers 404 until its plane is attached, then serves the
// plane's own document, also when the plane joins a monitor that is already
// serving.

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"nektarg/internal/audit"
	"nektarg/internal/geometry"
	"nektarg/internal/history"
	"nektarg/internal/insitu"
	"nektarg/internal/monitor"
	"nektarg/internal/telemetry"
)

// serve starts m on an ephemeral port and returns a GET helper.
func serve(t *testing.T, m *monitor.Monitor) func(string) (int, []byte, string) {
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

// TestSnapshotEndpoints pins the HTTP status contract of the in-situ
// observer's routes: 404 before the observer is attached, 200 JSON meta /
// 200 VTK once attached, 503 while it has no assembled frame yet, 500 when
// meta marshalling fails.
func TestSnapshotEndpoints(t *testing.T) {
	m := monitor.New(telemetry.NewRegistry(), monitor.Options{})
	get := serve(t, m)

	// No observer attached: both endpoints 404.
	for _, path := range []string{"/snapshot", "/snapshot/vtk"} {
		if code, _, _ := get(path); code != http.StatusNotFound {
			t.Fatalf("%s without an observer = %d, want 404", path, code)
		}
	}

	// Attached to the serving monitor, no frame yet: meta 200 (it reports
	// has_frame), vtk 503.
	obs := insitu.NewObserver(insitu.ObserverConfig{Sources: []string{"dpd:r"}})
	m.Attach(obs)
	code, body, ctype := get("/snapshot")
	if code != http.StatusOK || ctype != "application/json" {
		t.Fatalf("/snapshot = %d %q", code, ctype)
	}
	if !strings.Contains(string(body), `"has_frame": false`) {
		t.Fatalf("/snapshot body = %s", body)
	}
	if code, _, _ := get("/snapshot/vtk"); code != http.StatusServiceUnavailable {
		t.Fatalf("/snapshot/vtk before first frame = %d, want 503", code)
	}

	// Frame available: the VTK body is the observer's rendering.
	piece := func(step int, time float64) *insitu.Piece {
		return &insitu.Piece{
			Kind: insitu.KindParticles, Source: "dpd:r", Step: step, Time: time,
			Particles: &insitu.ParticleCloud{Total: 1, Pos: []geometry.Vec3{{X: 1}}, Vel: []geometry.Vec3{{}}},
		}
	}
	obs.Consume(piece(1, 1))
	var want bytes.Buffer
	if err := obs.SnapshotVTK(&want); err != nil {
		t.Fatal(err)
	}
	code, body, _ = get("/snapshot/vtk")
	if code != http.StatusOK || !bytes.Equal(body, want.Bytes()) || !strings.Contains(string(body), "# === insitu piece dpd:r (step 1) ===") {
		t.Fatalf("/snapshot/vtk = %d %q", code, body)
	}

	// Meta failure (a frame time JSON cannot encode) surfaces as 500, not a
	// silent empty document.
	obs.Consume(piece(2, math.NaN()))
	if code, _, _ := get("/snapshot"); code != http.StatusInternalServerError {
		t.Fatalf("/snapshot with an unencodable frame = %d, want 500", code)
	}
}

// TestHistoryEndpoints: /history and /anomalies 404 until the history plane
// is attached, then serve its documents with the query parameters passed
// through to Doc.
func TestHistoryEndpoints(t *testing.T) {
	m := monitor.New(telemetry.NewRegistry(), monitor.Options{FlightDir: t.TempDir()})
	get := serve(t, m)
	for _, path := range []string{"/history", "/anomalies"} {
		if code, _, _ := get(path); code != http.StatusNotFound {
			t.Fatalf("GET %s without a history plane = %d, want 404", path, code)
		}
	}

	h := history.New(history.Options{})
	rec := telemetry.NewRegistry().NewRecorder("rank0")
	for step := int64(1); step <= 40; step++ {
		rec.RecordSpan("ns.step", 0, time.Millisecond, 0, 0)
		h.SampleExchange(step, 0.01, []*telemetry.Recorder{rec})
	}
	m.Attach(h)

	code, body, ctype := get("/history?series=stage.&tier=1&max=2")
	want, err := h.HistoryJSON("stage.", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK || ctype != "application/json" || !bytes.Equal(body, want) {
		t.Fatalf("GET /history?series=stage.&tier=1&max=2 = %d %q:\n%s\nwant\n%s", code, ctype, body, want)
	}
	var doc history.Doc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Series) != 1 || doc.Series[0].Name != "stage.rank0.ns.step.seconds" || doc.Series[0].Tier != 1 || len(doc.Series[0].Bins) != 2 {
		t.Fatalf("GET /history served %+v, want the stage series at tier 1, 2 bins", doc.Series)
	}
	code, body, _ = get("/anomalies")
	if want, _ := h.AnomaliesJSON(); code != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("GET /anomalies = %d %s, want %s", code, body, want)
	}
	if _, body, _ := get("/metrics"); !strings.Contains(string(body), "nektarg_history_samples_total 40") {
		t.Fatal("GET /metrics lacks the attached plane's stats")
	}
}

// TestAttachMountsAuditAndIndex: the audit ledger's /audit route and stats
// join the surface on Attach, and the index lists the routes mounted.
func TestAttachMountsAuditAndIndex(t *testing.T) {
	m := monitor.New(telemetry.NewRegistry(), monitor.Options{})
	get := serve(t, m)
	if code, _, _ := get("/audit"); code != http.StatusNotFound {
		t.Fatalf("/audit without a ledger = %d, want 404", code)
	}
	if _, body, _ := get("/"); strings.Contains(string(body), "/audit") {
		t.Fatalf("index lists /audit before the ledger is attached:\n%s", body)
	}

	led := audit.New(audit.Options{})
	led.ObserveDrift("dpd.particles:r", 1000)
	led.EndExchange(1)
	m.Attach(led)
	code, body, ctype := get("/audit")
	var rep audit.StatusReport
	if code != http.StatusOK || ctype != "application/json" || json.Unmarshal(body, &rep) != nil ||
		len(rep.Budgets) != 1 || rep.Exchanges != 1 {
		t.Fatalf("/audit = %d %q %s", code, ctype, body)
	}
	if _, body, _ := get("/metrics"); !strings.Contains(string(body), "nektarg_audit_exchanges_total 1") {
		t.Fatal("GET /metrics lacks the ledger's stats")
	}
	if _, body, _ := get("/"); !strings.Contains(string(body), "GET  /audit\n") || !strings.Contains(string(body), "GET  /metrics\n") {
		t.Fatalf("index after attach:\n%s", body)
	}
}
