package monitor

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nektarg/internal/linalg"
	"nektarg/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files")

// syntheticState builds a fixed two-rank telemetry state plus a health
// timeline with one warn event — fully deterministic, so /metrics output can
// be pinned byte-for-byte by the golden test.
func syntheticState() ([]*telemetry.Snapshot, *Health) {
	reg := telemetry.NewRegistry()
	r0 := reg.NewRecorder("rank0")
	r1 := reg.NewRecorder("rank1")

	// rank0: two fast steps + a short exchange; rank1: one slow step + a
	// long exchange (the deliberate straggler). Durations are dyadic
	// fractions of a second so every derived statistic is exact in float64
	// and the golden exposition stays platform-independent.
	r0.RecordSpan("ns.step", 0, 250*time.Millisecond, 0, 4)
	r0.RecordSpan("ns.step", 300*time.Millisecond, 250*time.Millisecond, 4, 8)
	r0.RecordSpan("exchange", 250*time.Millisecond, 125*time.Millisecond, 8, 10)
	r1.RecordSpan("ns.step", 0, 750*time.Millisecond, 0, 4)
	r1.RecordSpan("exchange", 750*time.Millisecond, 375*time.Millisecond, 4, 12)

	r0.CountMessage(telemetry.LevelL4, telemetry.OpCoupling, 4096)
	r0.CountMessage(telemetry.LevelWorld, telemetry.OpAllreduce, 8)
	r1.CountMessage(telemetry.LevelL4, telemetry.OpCoupling, 4096)

	r0.Gauge("cg_iterations", 12)
	r0.Gauge("cg_iterations", 18)
	r1.Gauge("particles", 4000)

	// rank1 doubles as the observer track: insitu.* gauges pin the
	// <ns>_insitu_* family rendering.
	r1.Gauge("insitu.published", 48)
	r1.Gauge("insitu.delivered", 40)
	r1.Gauge("insitu.dropped", 8)
	r1.Gauge("insitu.bytes", 65536)
	r1.Gauge("insitu.frames", 10)
	r1.Gauge("insitu.staleness", 2)

	h := NewHealth()
	h.Record("cg-watch", "rank0", SevInfo, "ns.pressure: converged", 1e-9)
	h.Record("cfl-watch", "rank1", SevWarn, "1d.step: CFL within 10% of limit", 0.95)

	var snaps []*telemetry.Snapshot
	for _, r := range reg.Recorders() {
		snaps = append(snaps, r.Snapshot())
	}
	return snaps, h
}

// TestGoldenMetrics pins the Prometheus exposition for a known synthetic
// state byte-for-byte. Regenerate with `go test ./internal/monitor -run
// Golden -update` after an intentional format change.
func TestGoldenMetrics(t *testing.T) {
	snaps, h := syntheticState()
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, "nektarg", snaps, nil, h); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("metrics exposition drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestMetricsParse sanity-checks the exposition shape independent of the
// golden bytes: every non-comment line is `name{labels} value` with the
// configured namespace, and the cluster families cover both tracks.
func TestMetricsParse(t *testing.T) {
	snaps, h := syntheticState()
	// Track names come from config JSON: one with all three characters the
	// format escapes must read back, through a scraper's unescaping, as
	// itself (the writer used to escape it twice).
	hostile := "patch:a\"b\\c\nd"
	snaps = append(snaps, &telemetry.Snapshot{Track: hostile})
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, "test", snaps, nil, h); err != nil {
		t.Fatal(err)
	}
	samples := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, "test_") {
			t.Fatalf("sample outside namespace: %q", line)
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed sample line: %q", line)
		}
		samples++
	}
	if samples < 20 {
		t.Fatalf("suspiciously few samples: %d", samples)
	}
	const dropped = `test_telemetry_dropped_events_total{track="patch:`
	i := strings.Index(buf.String(), dropped)
	if i < 0 {
		t.Fatalf("no sample for the hostile track:\n%s", buf.String())
	}
	quoted := buf.String()[i+len(dropped)-len("patch:"):]
	quoted = quoted[:strings.Index(quoted, "\"} ")]
	if got := strings.NewReplacer(`\\`, `\`, `\n`, "\n", `\"`, `"`).Replace(quoted); got != hostile {
		t.Fatalf("label value %q reads back as %q, want %q", quoted, got, hostile)
	}
	for _, want := range []string{
		`test_stage_seconds_total{track="rank0",stage="ns.step"} 0.5`,
		`test_stage_seconds_total{track="rank1",stage="ns.step"} 0.75`,
		`test_stage_imbalance_ratio{stage="ns.step"} 1.2`,
		`test_stage_straggler_share{stage="exchange",straggler="rank1"} 0.75`,
		`test_traffic_bytes_total{level="L4",op="coupling"} 8192`,
		`test_solver_gauge{track="rank0",gauge="cg_iterations",stat="mean"} 15`,
		`test_health_healthy 1`,
		`test_health_events_total{watchdog="cfl-watch",severity="warn"} 1`,
	} {
		if !strings.Contains(buf.String(), want+"\n") {
			t.Fatalf("exposition missing %q\n%s", want, buf.String())
		}
	}
}

// TestImbalanceAnalyzer pins the analyzer arithmetic on the synthetic state:
// rank1 is the ns.step straggler at ratio max/mean = 0.3/0.25.
func TestImbalanceAnalyzer(t *testing.T) {
	snaps, _ := syntheticState()
	imb := AnalyzeImbalance(snaps)
	if len(imb) != 2 {
		t.Fatalf("want 2 stages, got %d", len(imb))
	}
	// Sorted by stage name: exchange first, ns.step second.
	ex, ns := imb[0], imb[1]
	if ex.Stage != "exchange" || ns.Stage != "ns.step" {
		t.Fatalf("unexpected stage order: %q, %q", ex.Stage, ns.Stage)
	}
	if ns.Straggler != "rank1" || ex.Straggler != "rank1" {
		t.Fatalf("straggler attribution wrong: ns=%q ex=%q", ns.Straggler, ex.Straggler)
	}
	if want := 0.75 / 0.625; math.Abs(ns.Ratio-want) > 1e-12 {
		t.Fatalf("ns.step imbalance ratio = %g, want %g", ns.Ratio, want)
	}
	if want := 0.375 / 0.5; math.Abs(ex.StragglerShare-want) > 1e-12 {
		t.Fatalf("exchange straggler share = %g, want %g", ex.StragglerShare, want)
	}
	if ns.Tracks != 2 || ns.Count != 3 {
		t.Fatalf("ns.step tracks=%d count=%d, want 2/3", ns.Tracks, ns.Count)
	}
	// Hop accounting: ns.step advanced 4+4+4=12 hops, exchange 2+8=10.
	if ns.Hops != 12 || ex.Hops != 10 {
		t.Fatalf("hops ns=%d ex=%d, want 12/10", ns.Hops, ex.Hops)
	}
	table := FormatImbalanceTable(imb)
	if !strings.Contains(table, "ns.step") || !strings.Contains(table, "rank1") {
		t.Fatalf("imbalance table missing rows:\n%s", table)
	}
	// Worst ratio first in the human table: exchange (1.5x) before ns.step
	// (1.2x).
	if strings.Index(table, "exchange") > strings.Index(table, "ns.step") {
		t.Fatalf("table not sorted worst-first:\n%s", table)
	}
}

// TestWatchdogLatching pins the event-on-transition contract: repeated
// identical observations emit one event; recovery emits one info; critical
// latches for the life of the run.
func TestWatchdogLatching(t *testing.T) {
	h := NewHealth()
	w := h.Watch("rank0")

	ok := linalg.SolveStats{Converged: true, Residual: 1e-10, History: []float64{1, 1e-10}}
	stag := linalg.SolveStats{Converged: false, Residual: 1e-3, Iterations: 100, History: []float64{1, 1e-3}}
	div := linalg.SolveStats{Converged: false, Residual: 50, Iterations: 100, History: []float64{1, 50}}

	// Healthy observations are silent: the implicit latch state is info, so
	// a converged solve emits nothing — steady-state runs generate zero
	// health events.
	for i := 0; i < 5; i++ {
		w.ObserveSolve("ns.pressure", ok, 100)
	}
	if got := len(h.Events()); got != 0 {
		t.Fatalf("5 healthy observations produced %d events, want 0", got)
	}
	w.ObserveSolve("ns.pressure", stag, 100) // info -> warn: one event
	w.ObserveSolve("ns.pressure", stag, 100) // latched: silent
	w.ObserveSolve("ns.pressure", ok, 100)   // warn -> recovered info: one event
	if got := len(h.Events()); got != 2 {
		t.Fatalf("warn+recover produced %d events, want 2", got)
	}
	if !h.Healthy() {
		t.Fatal("warn-level events must not trip the verdict")
	}
	w.ObserveSolve("ns.pressure", div, 100) // -> critical
	if h.Healthy() || h.Trips() != 1 {
		t.Fatalf("divergence should trip: healthy=%v trips=%d", h.Healthy(), h.Trips())
	}
	w.ObserveSolve("ns.pressure", ok, 100) // critical latches: no recovery event
	if got := h.Trips(); got != 1 {
		t.Fatalf("trips = %d after latched critical, want 1", got)
	}
	if got := len(h.Events()); got != 3 {
		t.Fatalf("critical latch leaked events: %d, want 3", got)
	}

	// CFL and particle-drift probes grade correctly.
	w.ObserveCFL("1d.step", 0.5, 1)  // info: silent
	w.ObserveCFL("1d.step", 0.95, 1) // warn
	w.ObserveCFL("1d.step", 1.5, 1)  // critical
	counts := h.WatchdogCounts()
	if c := counts["cfl-watch"]; c[SevWarn] != 1 || c[SevCritical] != 1 {
		t.Fatalf("cfl-watch counts = %v", c)
	}
	w.ObserveParticles(1000) // baseline
	w.ObserveParticles(1100) // 10% drift: info
	w.ObserveParticles(1300) // 30% drift: warn
	w.ObserveParticles(1600) // 60% drift: critical
	if c := h.WatchdogCounts()["particle-drift"]; c[SevWarn] != 1 || c[SevCritical] != 1 {
		t.Fatalf("particle-drift counts = %v", c)
	}
}

// TestHealthyObservationsAllocateNothing: an enabled probe whose severity did
// not change records nothing, so it must format nothing either — the 1D tree
// alone observes its CFL ~2000 times per exchange period.
func TestHealthyObservationsAllocateNothing(t *testing.T) {
	h := NewHealth()
	w := h.Watch("rank0")
	ok := linalg.SolveStats{Converged: true, Residual: 1e-10, History: []float64{1, 1e-10}}
	field := []float64{1, 2, 3}
	w.ObserveParticles(1000) // seeds the reference
	allocs := testing.AllocsPerRun(100, func() {
		w.ObserveCFL("1d.step", 0.02, 1)
		w.ObserveSolve("ns.pressure", ok, 100)
		w.ObserveParticles(1001)
		if err := w.GuardField("1d.step", "root.A", field); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("healthy observations allocate %.1f objects per round, want 0", allocs)
	}
	if got := len(h.Events()); got != 0 {
		t.Fatalf("healthy observations recorded %d events, want 0", got)
	}
}

// TestGuardField pins the NaN guard: clean fields pass free of events, the
// first non-finite entry produces a critical event and an error naming the
// field and index.
func TestGuardField(t *testing.T) {
	h := NewHealth()
	w := h.Watch("patch:A")
	clean := []float64{1, 2, 3}
	if err := w.GuardField("ns.step", "u", clean); err != nil {
		t.Fatal(err)
	}
	if len(h.Events()) != 0 {
		t.Fatal("clean field emitted events")
	}
	bad := []float64{1, math.Inf(1), 3}
	err := w.GuardField("ns.step", "v", bad)
	if err == nil {
		t.Fatal("Inf passed the guard")
	}
	if !strings.Contains(err.Error(), `"v"`) || !strings.Contains(err.Error(), "index 1") {
		t.Fatalf("guard error lacks context: %v", err)
	}
	if h.Healthy() {
		t.Fatal("NaN guard must trip the verdict")
	}
	ev := h.Events()
	if len(ev) != 1 || ev[0].Watchdog != "nan-guard" || ev[0].Severity != SevCritical || ev[0].Track != "patch:A" {
		t.Fatalf("unexpected event: %+v", ev)
	}
}

// TestHealthzTripAndFlight is the end-to-end acceptance path: a live HTTP
// monitor flips /healthz 200→503 when a watchdog trips, and the trip writes a
// flight-*.json carrying every rank's recent spans and the health timeline.
func TestHealthzTripAndFlight(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	r0 := reg.NewRecorder("rank0")
	r1 := reg.NewRecorder("rank1")
	r0.RecordSpan("ns.step", 0, time.Millisecond, 0, 2)
	r1.RecordSpan("ns.step", 0, 2*time.Millisecond, 0, 2)
	r0.Gauge("cg_iterations", 7)

	m := New(reg, Options{FlightDir: dir})
	srv, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, []byte, string) {
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body, resp.Header.Get("Content-Type")
	}

	// Healthy run: 200 JSON verdict, valid metrics.
	code, body, ctype := get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz = %d while healthy, want 200", code)
	}
	if ctype != "application/json" {
		t.Fatalf("/healthz content-type %q", ctype)
	}
	var v Verdict
	if err := json.Unmarshal(body, &v); err != nil || !v.Healthy || v.Status != "healthy" {
		t.Fatalf("healthy verdict = %s (err %v)", body, err)
	}
	code, body, ctype = get("/metrics")
	if code != http.StatusOK || !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics = %d %q", code, ctype)
	}
	if !strings.Contains(string(body), "nektarg_health_healthy 1") {
		t.Fatalf("metrics missing healthy gauge:\n%s", body)
	}

	// Trip a NaN guard — exactly what nektar3d does when a field corrupts.
	w := m.Health().Watch("rank0")
	if err := w.GuardField("ns.step", "u", []float64{0, math.NaN()}); err == nil {
		t.Fatal("guard did not trip")
	}

	code, body, _ = get("/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz = %d after trip, want 503", code)
	}
	if err := json.Unmarshal(body, &v); err != nil || v.Healthy || v.Status != "unhealthy" || v.Trips != 1 {
		t.Fatalf("tripped verdict = %s (err %v)", body, err)
	}
	if len(v.Critical) != 1 || v.Critical[0].Watchdog != "nan-guard" {
		t.Fatalf("verdict critical events = %+v", v.Critical)
	}
	_, body, _ = get("/metrics")
	if !strings.Contains(string(body), "nektarg_health_healthy 0") ||
		!strings.Contains(string(body), "nektarg_health_trips_total 1") {
		t.Fatalf("metrics did not flip after trip:\n%s", body)
	}

	// The trip auto-fired the flight recorder.
	dumps := m.Flight().Dumps()
	if len(dumps) != 1 {
		t.Fatalf("flight dumps after trip: %v, want exactly 1", dumps)
	}
	raw, err := os.ReadFile(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	var d FlightDump
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("flight dump not valid JSON: %v", err)
	}
	if d.Trip == nil || d.Trip.Watchdog != "nan-guard" {
		t.Fatalf("dump trip = %+v", d.Trip)
	}
	if !strings.HasPrefix(d.Reason, "watchdog:") {
		t.Fatalf("dump reason = %q", d.Reason)
	}
	if len(d.Tracks) != 2 {
		t.Fatalf("dump carries %d tracks, want every rank (2)", len(d.Tracks))
	}
	for _, tr := range d.Tracks {
		if len(tr.Spans) == 0 {
			t.Fatalf("track %q dumped without spans", tr.Track)
		}
		if tr.Stages["ns.step"].Count == 0 {
			t.Fatalf("track %q dumped without stage aggregates", tr.Track)
		}
	}
	if len(d.Events) == 0 || d.Verdict.Healthy {
		t.Fatalf("dump health timeline incomplete: %d events, verdict %+v", len(d.Events), d.Verdict)
	}

	// /imbalance serves the analyzer table.
	code, body, _ = get("/imbalance")
	if code != http.StatusOK || !strings.Contains(string(body), "ns.step") {
		t.Fatalf("/imbalance = %d:\n%s", code, body)
	}

	// pprof index is mounted.
	code, _, _ = get("/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
}

// TestFlightDumpLimit pins the per-run dump budget: past DefaultFlightLimit
// dumps, Dump returns "" and POST /flight answers 429.
func TestFlightDumpLimit(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	reg.NewRecorder("rank0").RecordSpan("s", 0, time.Millisecond, 0, 0)
	m := New(reg, Options{FlightDir: dir})
	for i := 0; i < DefaultFlightLimit; i++ {
		path, err := m.Flight().Dump("manual", nil)
		if err != nil || path == "" {
			t.Fatalf("dump %d: path=%q err=%v", i, path, err)
		}
	}
	path, err := m.Flight().Dump("manual", nil)
	if err != nil || path != "" {
		t.Fatalf("dump past limit: path=%q err=%v, want silent refusal", path, err)
	}
	srv, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Post(srv.URL()+"/flight", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("POST /flight past limit = %d, want 429", resp.StatusCode)
	}
}

// TestScrapeWhileStepping races live HTTP scrapes against a solver goroutine
// actively recording — verify.sh runs this under -race; any unsynchronized
// access between the recorder's owner and the exporter fails the build.
func TestScrapeWhileStepping(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := reg.NewRecorder("rank0")
	m := New(reg, Options{FlightDir: t.TempDir()})
	w := m.Health().Watch("rank0")
	srv, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the "solver": owns the recorder, steps as fast as it can
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sp := rec.Begin("ns.step")
			rec.Gauge("cg_iterations", float64(i%40))
			rec.CountMessage(telemetry.LevelL4, telemetry.OpCoupling, 512)
			w.ObserveCFL("ns.step", 0.3, 1)
			sp.End()
		}
	}()
	for i := 0; i < 25; i++ {
		for _, path := range []string{"/metrics", "/healthz", "/imbalance"} {
			resp, err := http.Get(srv.URL() + path)
			if err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		}
	}
	close(stop)
	wg.Wait()
}

// disabledWatch is package state so the compiler cannot prove the receiver
// nil and fold the probes away (same trick as telemetry's overhead test).
var disabledWatch *Watchdogs

// disabledField keeps the guard input alive across benchmark iterations.
var disabledField = make([]float64, 1024)

// TestMonitorDisabledZeroCost is the zero-cost-when-disabled guard run by
// scripts/verify.sh: every watchdog probe on a nil bundle must allocate
// nothing and stay within the same budget telemetry's disabled path honors —
// monitoring off may not tax the solver hot loops.
func TestMonitorDisabledZeroCost(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short mode")
	}
	st := linalg.SolveStats{Converged: true, Residual: 1e-9, History: []float64{1, 1e-9}}
	probe := func() {
		disabledWatch.GuardField("ns.step", "u", disabledField)
		disabledWatch.GuardValue("dpd.step", "particle", 1.5, 0)
		disabledWatch.ObserveSolve("ns.pressure", st, 100)
		disabledWatch.ObserveCFL("1d.step", 0.5, 1)
		disabledWatch.ObserveParticles(1000)
	}
	allocs := testing.AllocsPerRun(1000, probe)
	if allocs != 0 {
		t.Fatalf("disabled watchdog probes allocate %.1f objects per op, want 0", allocs)
	}
	if raceEnabled {
		t.Skip("ns/op guard skipped under the race detector (instrumentation overhead)")
	}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			probe()
		}
	})
	const maxNs = 50.0
	if ns := float64(res.NsPerOp()); ns > maxNs {
		t.Fatalf("disabled watchdog probes cost %.1f ns/op, budget %.0f ns/op", ns, maxNs)
	}
}

func BenchmarkDisabledWatchdogProbe(b *testing.B) {
	st := linalg.SolveStats{Converged: true, Residual: 1e-9, History: []float64{1, 1e-9}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		disabledWatch.ObserveSolve("ns.pressure", st, 100)
		disabledWatch.ObserveCFL("1d.step", 0.5, 1)
	}
}

// benchSnaps builds the analyzer benchmark input: 64 tracks × 10 stages,
// roughly the paper's per-network rank counts.
func benchSnaps() []*telemetry.Snapshot {
	reg := telemetry.NewRegistry()
	stages := []string{"ns.step", "ns.pressure", "ns.helmholtz", "exchange", "gather",
		"scatter", "dpd.step", "1d.step", "interp", "reduce"}
	var snaps []*telemetry.Snapshot
	for tr := 0; tr < 64; tr++ {
		r := reg.NewRecorder("rank" + string(rune('0'+tr%10)) + string(rune('a'+tr/10)))
		for si, s := range stages {
			for k := 0; k < 4; k++ {
				r.RecordSpan(s, time.Duration(tr)*time.Millisecond,
					time.Duration(1+si+tr%7)*time.Millisecond, tr, tr+si)
			}
		}
		snaps = append(snaps, r.Snapshot())
	}
	return snaps
}

// BenchmarkAnalyzeImbalance measures the analyzer over a 64-track × 10-stage
// cluster — the per-scrape cost of the imbalance families in /metrics.
func BenchmarkAnalyzeImbalance(b *testing.B) {
	snaps := benchSnaps()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := AnalyzeImbalance(snaps); len(out) != 10 {
			b.Fatalf("analyzer returned %d stages", len(out))
		}
	}
}

// BenchmarkWriteMetrics measures a full exposition render at the same scale.
func BenchmarkWriteMetrics(b *testing.B) {
	snaps := benchSnaps()
	h := NewHealth()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteMetrics(io.Discard, "nektarg", snaps, nil, h); err != nil {
			b.Fatal(err)
		}
	}
}
