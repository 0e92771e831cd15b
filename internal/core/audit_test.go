package core

// Physics-audit acceptance tests over the full three-solver stack: the
// injected-fault end-to-end check the audit plane exists for (a scaled flux
// BC must trip the ledger before any NaN guard, and the violation must be
// visible on /audit, /cluster/metrics and in the run-event journal), plus
// the resume-continuity guarantee that a checkpoint round-trip leaves the
// ledger bit-identical to an uninterrupted run.

import (
	"bytes"
	"io"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nektarg/internal/audit"
	"nektarg/internal/checkpoint"
	"nektarg/internal/fleet"
	"nektarg/internal/monitor"
	"nektarg/internal/telemetry"
)

// wireAudit attaches a fresh ledger (with optional health plane) to a
// restart scenario, covering all three solvers' budgets.
func wireAudit(sc *restartScenario, watch *monitor.Watchdogs) *audit.Ledger {
	led := audit.New(audit.Options{Watch: watch})
	sc.m.EnableAudit(led)
	return led
}

// TestAuditControlRunStaysInTolerance is the unfaulted control: a coupled
// 3D+DPD+1D run under default bands must finish with every budget ok — the
// ledger would be useless if healthy physics tripped it.
func TestAuditControlRunStaysInTolerance(t *testing.T) {
	sc := buildRestartScenario(t)
	// Pre-fill the flux-fed region so the DPD kinetic budgets (gated on a
	// real population) are live from the first exchange.
	sc.m.Atomistic[0].Sys.FillRandom(400, 0)
	led := wireAudit(sc, nil)
	sc.advance(t, 6)
	rep := led.Status()
	if rep.Worst != audit.SevOK {
		t.Fatalf("control run worst severity = %s, want ok:\n%s", rep.Worst, led.FormatTable())
	}
	if rep.Violations != 0 {
		t.Fatalf("control run recorded %d violations, want 0", rep.Violations)
	}
	if !led.Healthy() {
		t.Fatal("control run ledger unhealthy")
	}
	if rep.Exchanges != 6 {
		t.Fatalf("ledger stamped %d exchanges, want 6", rep.Exchanges)
	}
	// Every solver family must actually be observed: 3D, ΓI, DPD, 1D.
	for _, class := range []string{"mass.div:", "energy.kinetic:", "gi.flux:", "gi.bytes:", "momentum:", "temperature:", "1d.mass:", "q.match:"} {
		found := false
		for _, b := range rep.Budgets {
			if strings.HasPrefix(b.Name, class) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no budget of class %q observed", class)
		}
	}
}

// TestAuditCatchesInjectedFluxFault injects the deliberate conservation
// fault (FluxScale 1.5 on the DPD region's ΓI trace) into an otherwise
// identical run and requires the full detection chain: the audit watchdog
// trips critical before any NaN/CFL guard, GET /audit and /cluster/metrics
// report the violating budget, and the run-event journal receives an
// audit-violation record.
func TestAuditCatchesInjectedFluxFault(t *testing.T) {
	sc := buildRestartScenario(t)
	sc.m.Atomistic[0].Sys.FillRandom(400, 0)
	sc.m.Atomistic[0].FluxScale = 1.5

	reg := telemetry.NewRegistry()
	sc.m.EnableTelemetry(reg)
	mon := monitor.New(reg, monitor.Options{FlightDir: t.TempDir()})
	sc.m.EnableMonitoring(mon.Health())
	led := wireAudit(sc, mon.Health().Watch("audit"))
	mon.Attach(led)

	// Journal leg: violations recorded as they latch, like fleetWire.bindAudit.
	jpath := filepath.Join(t.TempDir(), "journal.nkj")
	j, err := fleet.OpenJournal(jpath, 0, "inproc")
	if err != nil {
		t.Fatal(err)
	}
	led.OnViolation(func(v audit.Violation) {
		j.Record(fleet.EventAuditViolation, map[string]any{
			"budget": v.Budget, "kind": v.Kind, "severity": v.Severity.String(),
			"value": v.Value, "exchange": v.Exchange,
		})
	})

	sc.advance(t, 3)

	if led.Healthy() {
		t.Fatalf("faulted run ledger still healthy:\n%s", led.FormatTable())
	}
	var flux *audit.BudgetStatus
	for i, b := range led.Status().Budgets {
		if b.Name == "gi.flux:omegaA" {
			flux = &led.Status().Budgets[i]
		}
	}
	if flux == nil || flux.StepSev != "critical" {
		t.Fatalf("gi.flux:omegaA not critical: %+v", flux)
	}

	// Ordering: the audit ledger must be the FIRST critical on the health
	// plane — the whole point is catching the leak while fields are finite,
	// before a NaN/CFL guard ever fires.
	events := mon.Health().Events()
	firstCritical := ""
	for _, e := range events {
		if e.Severity == monitor.SevCritical {
			firstCritical = e.Watchdog
			break
		}
	}
	if firstCritical != "audit-ledger" {
		t.Fatalf("first critical watchdog = %q, want audit-ledger (events: %+v)", firstCritical, events)
	}
	for _, e := range events {
		if e.Severity == monitor.SevCritical && (e.Watchdog == "nan-guard" || e.Watchdog == "cfl-watch") {
			t.Fatalf("solver guard %q also tripped — fault too violent to demonstrate early detection", e.Watchdog)
		}
	}

	// GET /audit on the live monitor reports the violating budget.
	srv, err := mon.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck // test cleanup
	body := httpGet(t, srv.URL()+"/audit")
	for _, want := range []string{`"gi.flux:omegaA"`, `"critical"`, `"worst_severity": "critical"`} {
		if !strings.Contains(body, want) {
			t.Errorf("GET /audit missing %q:\n%s", want, body)
		}
	}

	// The cluster rollup carries the same verdict: publish this process's
	// stats to an aggregator and scrape /cluster/metrics.
	agg := fleet.NewAggregator()
	agg.Report(fleet.ProcessStatus{
		Proc: "rank0", Ranks: []int{0}, Transport: "inproc",
		Verdict: mon.Health().Verdict(), Stats: led.Stats(),
	})
	fsrv, err := agg.Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fsrv.Close() //nolint:errcheck // test cleanup
	metrics := httpGet(t, fsrv.URL()+"/cluster/metrics")
	for _, want := range []string{
		"nektarg_cluster_audit_worst_severity 2",
		`budget="gi.flux:omegaA"`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/cluster/metrics missing %q:\n%s", want, metrics)
		}
	}

	// The journal holds the audit-violation record.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := fleet.ReadJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range recs {
		if e.Type == fleet.EventAuditViolation {
			found = true
			if b, _ := e.Fields["budget"].(string); b != "gi.flux:omegaA" {
				t.Errorf("journal violation budget = %v, want gi.flux:omegaA", e.Fields["budget"])
			}
		}
	}
	if !found {
		t.Fatalf("no %s event in journal: %+v", fleet.EventAuditViolation, recs)
	}
}

// TestAuditLedgerResumeContinuity: N exchanges, checkpoint, M more — resumed
// through a serialized bundle on fresh wiring — must leave the ledger
// bit-identical to N+M straight exchanges. EMAs, drift baselines, latched
// severities and byte totals all ride the checkpoint.
func TestAuditLedgerResumeContinuity(t *testing.T) {
	const n, m = 3, 2

	// Straight run: N+M exchanges, no interruption.
	straight := buildRestartScenario(t)
	ledStraight := wireAudit(straight, nil)
	straight.advance(t, n+m)

	// Interrupted run: N exchanges, then a full serialize/deserialize
	// round-trip of the bundle onto freshly built wiring (the kill -9 +
	// relaunch shape), then M more.
	first := buildRestartScenario(t)
	wireAudit(first, nil)
	first.advance(t, n)
	var buf bytes.Buffer
	if err := checkpoint.Save(&buf, first.m.CaptureCheckpoint(first.networks)); err != nil {
		t.Fatal(err)
	}
	bundle, err := checkpoint.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	resumed := buildRestartScenario(t)
	ledResumed := wireAudit(resumed, nil)
	if err := resumed.m.RestoreCheckpoint(bundle, resumed.networks); err != nil {
		t.Fatal(err)
	}
	resumed.advance(t, m)

	got, want := ledResumed.CaptureState(), ledStraight.CaptureState()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed ledger state diverged from straight run:\ngot  %+v\nwant %+v", got, want)
	}
	if ledResumed.Status().Exchanges != n+m {
		t.Fatalf("resumed ledger exchanges = %d, want %d", ledResumed.Status().Exchanges, n+m)
	}
}

func httpGet(t *testing.T, url string) string {
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
