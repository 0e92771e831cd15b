package audit

// Golden exposition test: the nektarg_audit_* Prometheus families rendered
// through monitor.WriteMetrics are pinned byte-for-byte, HELP/TYPE included,
// so a dashboard built on them cannot be broken by an accidental rename.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nektarg/internal/monitor"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureLedger builds a deterministic ledger: three budgets across two
// exchanges, one latched critical, with dyadic values so every rendered
// float is exact.
func fixtureLedger() *Ledger {
	led := New(Options{})
	led.ObserveResidual("gi.flux:insert", 0, 1)
	led.ObserveDrift("mass.div:patchA", 0.5)
	led.CountExchange("insert", 24, 24, 24)
	led.EndExchange(1)
	led.ObserveResidual("gi.flux:insert", 0.5, 1) // 50% defect: critical
	led.ObserveDrift("mass.div:patchA", 0.5)
	led.CountExchange("insert", 24, 24, 24)
	led.EndExchange(2)
	return led
}

func TestGoldenAuditExposition(t *testing.T) {
	led := fixtureLedger()
	var buf bytes.Buffer
	if err := monitor.WriteMetrics(&buf, nil, led.Stats(), monitor.NewHealth()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics_audit.golden")
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
		t.Fatalf("audit exposition drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
	for _, want := range []string{
		"# HELP nektarg_audit_budget_rel ",
		"# TYPE nektarg_audit_budget_rel gauge",
		`nektarg_audit_budget_severity{budget="gi.flux:insert"} 2`,
		"nektarg_audit_violations_total 1",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestAuditExpositionHelpTypeLint asserts every audit family is announced
// with a HELP and TYPE header before its first sample — the structural
// guarantee Prometheus scrapers rely on, independent of the golden bytes.
func TestAuditExpositionHelpTypeLint(t *testing.T) {
	var buf bytes.Buffer
	if err := monitor.WriteMetrics(&buf, nil, fixtureLedger().Stats(), monitor.NewHealth()); err != nil {
		t.Fatal(err)
	}
	announced, err := monitor.LintExposition(buf.String())
	if err != nil {
		t.Error(err)
	}
	for _, fam := range []string{"nektarg_audit_exchanges_total", "nektarg_audit_violations_total",
		"nektarg_audit_worst_severity", "nektarg_audit_budget_rel", "nektarg_audit_budget_ema",
		"nektarg_audit_budget_severity", "nektarg_audit_budget_violations_total"} {
		if !announced[fam] {
			t.Errorf("family %s missing HELP or TYPE", fam)
		}
	}
}
