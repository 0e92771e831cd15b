package fleet

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nektarg/internal/audit"
	"nektarg/internal/monitor"
	"nektarg/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files")

func healthyStatus(proc string, rank int) ProcessStatus {
	s := &telemetry.Snapshot{
		Track:  "solver",
		Stages: map[string]telemetry.StageStats{"3d:step": {Count: 4, Total: 0.4, Min: 0.09, Max: 0.11}},
		Gauges: map[string]telemetry.GaugeStats{},
	}
	s.Traffic[telemetry.LevelL2][telemetry.OpP2P].Msgs = 10
	s.Traffic[telemetry.LevelL2][telemetry.OpP2P].Bytes = 1000
	return ProcessStatus{
		Proc:        proc,
		Ranks:       []int{rank},
		Incarnation: 1,
		Transport:   "tcp",
		TimeUnixNs:  time.Now().UnixNano(),
		Snapshots:   []*telemetry.Snapshot{s},
		Verdict:     monitor.Verdict{Healthy: true},
		Stats: []monitor.Stat{
			{Name: "transport_redials_total", Type: "counter", Value: 2},
		},
	}
}

func TestAggregatorVerdictAndLatch(t *testing.T) {
	a := NewAggregator()
	a.Report(healthyStatus("rank0", 0))
	a.Report(healthyStatus("rank1", 1))
	if !a.Verdict().Healthy {
		t.Fatal("two healthy processes must be healthy")
	}

	a.ReportOutage("world-lost (rank 0)")
	v := a.Verdict()
	if v.Healthy || !v.Latched || v.Outages != 1 {
		t.Fatalf("latched verdict = %+v", v)
	}
	// A healthy re-publish does NOT clear the latch: only a recovery does.
	a.Report(healthyStatus("rank0", 0))
	if a.Verdict().Healthy {
		t.Fatal("healthy publish must not clear the outage latch")
	}
	a.Rearm()
	if !a.Verdict().Healthy {
		t.Fatal("rearm must clear the latch")
	}
	if v := a.Verdict(); v.Rearms != 1 {
		t.Fatalf("rearms = %d, want 1", v.Rearms)
	}

	// An unhealthy process verdict latches too.
	bad := healthyStatus("rank1", 1)
	bad.Verdict = monitor.Verdict{Healthy: false, Trips: 1}
	a.Report(bad)
	v = a.Verdict()
	if v.Healthy || v.Outages != 2 {
		t.Fatalf("after unhealthy publish: %+v", v)
	}
	if len(v.Processes) != 2 || v.Processes[0].Proc != "rank0" || v.Processes[1].Proc != "rank1" {
		t.Fatalf("process verdicts not sorted: %+v", v.Processes)
	}
}

func TestAggregatorObserveJournal(t *testing.T) {
	a := NewAggregator()
	j := openTestJournal(t, filepath.Join(t.TempDir(), "j.nkj"), 0)
	a.ObserveJournal(j)

	j.Record(EventIncarnationStart, nil)
	if !a.Verdict().Healthy {
		t.Fatal("incarnation start must not latch")
	}
	j.Record(EventWorldLost, map[string]any{"cause": "peer died"})
	if a.Verdict().Healthy {
		t.Fatal("world-lost must latch")
	}
	j.Record(EventRecovered, map[string]any{"exchange": 2})
	if !a.Verdict().Healthy {
		t.Fatal("recovered must re-arm")
	}
}

func TestClusterMetricsExposition(t *testing.T) {
	a := NewAggregator()
	a.Report(healthyStatus("rank0", 0))
	a.Report(healthyStatus("rank1", 1))
	var buf bytes.Buffer
	if err := WriteClusterMetrics(&buf, a.Verdict(), a.Statuses()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"nektarg_cluster_up 1",
		"nektarg_cluster_processes 2",
		"nektarg_cluster_healthy 1",
		`nektarg_process_info{incarnation="1",proc="rank0",ranks="0",transport="tcp"} 1`,
		`nektarg_process_healthy{proc="rank1"} 1`,
		`nektarg_process_stage_seconds_total{proc="rank0",stage="3d:step"}`,
		"nektarg_cluster_stage_imbalance_ratio{stage=\"3d:step\"}",
		`nektarg_cluster_traffic_messages_total{level="L2",op="p2p"} 20`,
		`nektarg_cluster_traffic_bytes_total{level="L2",op="p2p"} 2000`,
		`nektarg_transport_redials_total{proc="rank0"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// Deterministic: a second render is byte-identical.
	var buf2 bytes.Buffer
	if err := WriteClusterMetrics(&buf2, a.Verdict(), a.Statuses()); err != nil {
		t.Fatal(err)
	}
	a1, a2 := buf.String(), buf2.String()
	// Age is the one wall-clock-dependent family; strip it before comparing.
	strip := func(s string) string {
		var keep []string
		for _, ln := range strings.Split(s, "\n") {
			if !strings.Contains(ln, "process_age_seconds") {
				keep = append(keep, ln)
			}
		}
		return strings.Join(keep, "\n")
	}
	if strip(a1) != strip(a2) {
		t.Fatal("cluster metrics exposition is not deterministic")
	}
}

// auditedStatus is healthyStatus plus the physics-audit stats a violating
// rank would publish (a real ledger driven to a critical, so the exposition
// pins the audit package's actual family names, labels and HELP text).
func auditedStatus(proc string, rank int) ProcessStatus {
	led := audit.New(audit.Options{})
	led.ObserveResidual("gi.flux:insert", 0, 1)
	led.EndExchange(1)
	led.ObserveResidual("gi.flux:insert", 0.5, 1) // 50% defect: critical
	led.EndExchange(2)
	st := healthyStatus(proc, rank)
	st.Stats = append(st.Stats, led.Stats()...)
	return st
}

// TestGoldenClusterMetrics pins the /cluster/metrics exposition — HELP/TYPE
// headers, audit rollup and per-process relabeling included — byte-for-byte
// (modulo the wall-clock age family). Regenerate with
// `go test ./internal/fleet -run Golden -update` after an intentional change.
func TestGoldenClusterMetrics(t *testing.T) {
	a := NewAggregator()
	a.Report(healthyStatus("rank0", 0))
	a.Report(auditedStatus("rank1", 1))
	v := a.Verdict()
	for i := range v.Processes {
		v.Processes[i].AgeS = 0 // wall-clock-dependent; pinned to 0 for the golden bytes
	}
	var buf bytes.Buffer
	if err := WriteClusterMetrics(&buf, v, a.Statuses()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "cluster_metrics.golden")
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
		t.Fatalf("cluster metrics exposition drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
	for _, w := range []string{
		"nektarg_cluster_audit_worst_severity 2",
		"nektarg_cluster_audit_violations_total 1",
		`nektarg_audit_budget_severity{proc="rank1",budget="gi.flux:insert"} 2`,
	} {
		if !strings.Contains(buf.String(), w) {
			t.Errorf("exposition missing %q", w)
		}
	}
}

// TestClusterMetricsHelpTypeLint asserts every family in the cluster
// exposition is announced with HELP and TYPE before its first sample.
func TestClusterMetricsHelpTypeLint(t *testing.T) {
	a := NewAggregator()
	a.Report(healthyStatus("rank0", 0))
	a.Report(auditedStatus("rank1", 1))
	var buf bytes.Buffer
	if err := WriteClusterMetrics(&buf, a.Verdict(), a.Statuses()); err != nil {
		t.Fatal(err)
	}
	if _, err := monitor.LintExposition(buf.String()); err != nil {
		t.Error(err)
	}
}

func TestFleetHTTPSurface(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, filepath.Join(dir, "j.nkj"), 0)
	a := NewAggregator()
	a.ObserveJournal(j)
	srv, err := a.Serve("127.0.0.1:0", j)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	// Publish a status through the real ingest endpoint.
	body, _ := json.Marshal(healthyStatus("rank0", 0))
	resp, err := http.Post(srv.URL()+"/cluster/publish", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("publish returned %s", resp.Status)
	}

	if code, b := get("/cluster/metrics"); code != 200 || !strings.Contains(b, `nektarg_process_info{incarnation="1",proc="rank0"`) {
		t.Fatalf("metrics: %d\n%s", code, b)
	}
	if code, b := get("/cluster/healthz"); code != 200 || !strings.Contains(b, `"status": "healthy"`) {
		t.Fatalf("healthz: %d %s", code, b)
	}

	// A journaled world loss flips healthz to 503 until recovery.
	j.Record(EventWorldLost, map[string]any{"cause": "kill -9"})
	if code, b := get("/cluster/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(b, "world-lost") {
		t.Fatalf("healthz during outage: %d %s", code, b)
	}
	j.Record(EventRecovered, nil)
	if code, _ := get("/cluster/healthz"); code != 200 {
		t.Fatalf("healthz after recovery: %d", code)
	}

	if code, b := get("/cluster/imbalance"); code != 200 || b == "" {
		t.Fatalf("imbalance: %d", code)
	}
	code, b := get("/events")
	if code != 200 || !strings.Contains(b, "world-lost") || !strings.Contains(b, "recovered") {
		t.Fatalf("events: %d\n%s", code, b)
	}
	// /events is byte-stable across reads.
	if _, b2 := get("/events"); b != b2 {
		t.Fatal("/events not byte-stable")
	}

	// Bad publishes are rejected.
	resp, err = http.Post(srv.URL()+"/cluster/publish", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty proc accepted: %s", resp.Status)
	}
}

func TestPublisherEndToEnd(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := reg.NewRecorder("solver")
	sp := rec.Begin("3d:step")
	sp.End()
	mon := monitor.New(reg, monitor.Options{})
	mon.AddStatSource(func() []monitor.Stat {
		return []monitor.Stat{{Name: "transport_redials_total", Type: "counter", Value: 1}}
	})

	a := NewAggregator()
	srv, err := a.Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	j, err := OpenJournal(filepath.Join(t.TempDir(), "j.nkj"), 7, "tcp")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 3; i++ {
		j.Record(EventIncarnationStart, nil)
	}
	pub := NewPublisher(srv.URL(), mon, nil, "rank7", []int{7}, "tcp", j)
	if err := pub.PublishNow(); err != nil {
		t.Fatal(err)
	}
	sts := a.Statuses()
	if len(sts) != 1 || sts[0].Proc != "rank7" || sts[0].Incarnation != 3 || sts[0].Incarnation != j.Incarnation() || sts[0].Transport != "tcp" {
		t.Fatalf("aggregated status = %+v", sts)
	}
	if len(sts[0].Snapshots) == 0 || len(sts[0].Stats) == 0 {
		t.Fatalf("status missing snapshots/stats: %+v", sts[0])
	}

	// The per-exchange hook republishes the same process.
	pub.OnExchange(1)
	if got := len(a.Statuses()); got != 1 {
		t.Fatalf("per-exchange publish changed process count: %d", got)
	}
}
