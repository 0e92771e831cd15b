// Exposition: the ledger's scrape-time faces, served through
// monitor.Attach. Stats feeds the nektarg_audit_* Prometheus families (and
// from there the fleet rollup, relabeled per process); Routes serves the
// GET /audit document WriteJSON writes; FormatTable is the end-of-run CLI
// report.
package audit

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"nektarg/internal/monitor"
)

// Stats renders the ledger as monitor stat samples, one audit_* family per
// statistic with the budget name as a label. Safe from any goroutine; nil
// ledger yields nil (the monitor simply exposes nothing).
func (l *Ledger) Stats() []monitor.Stat {
	if l == nil {
		return nil
	}
	rep := l.Status()
	out := make([]monitor.Stat, 0, 4*len(rep.Budgets)+3)
	out = append(out,
		monitor.Stat{
			Name: "audit_exchanges_total", Type: "counter",
			Help:  "Coupling exchanges stamped into the physics audit ledger.",
			Value: float64(rep.Exchanges),
		},
		monitor.Stat{
			Name: "audit_violations_total", Type: "counter",
			Help:  "Audit budget severity transitions (step or leak) latched since the run began.",
			Value: float64(rep.Violations),
		},
		monitor.Stat{
			Name: "audit_worst_severity", Type: "gauge",
			Help:  "Worst latched audit severity across all budgets (0 ok, 1 warn, 2 critical).",
			Value: float64(rep.Worst),
		},
	)
	for _, b := range rep.Budgets {
		lbl := [][2]string{{"budget", b.Name}}
		out = append(out,
			monitor.Stat{
				Name: "audit_budget_rel", Type: "gauge", Labels: lbl,
				Help:  "Last per-exchange relative defect (residual budgets) or jump (drift budgets).",
				Value: b.Rel,
			},
			monitor.Stat{
				Name: "audit_budget_ema", Type: "gauge", Labels: lbl,
				Help:  "Slow-leak statistic: EMA of the signed relative defect, or reference drift from baseline.",
				Value: b.EMA,
			},
			monitor.Stat{
				Name: "audit_budget_severity", Type: "gauge", Labels: lbl,
				Help:  "Latched budget severity (0 ok, 1 warn, 2 critical), max of step and leak taxonomies.",
				Value: float64(maxSev(b.StepSeverity, b.LeakSeverity)),
			},
			monitor.Stat{
				Name: "audit_budget_violations_total", Type: "counter", Labels: lbl,
				Help:  "Severity transitions latched by this budget.",
				Value: float64(b.Violations),
			},
		)
	}
	return out
}

func maxSev(a, b Severity) Severity {
	if b > a {
		return b
	}
	return a
}

// Routes serves the ledger on the monitor: GET /audit is the WriteJSON
// document.
func (l *Ledger) Routes() map[string]http.HandlerFunc {
	return map[string]http.HandlerFunc{"/audit": func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		l.WriteJSON(w) //nolint:errcheck // client went away
	}}
}

// WriteJSON serializes the full ledger status as the GET /audit document.
func (l *Ledger) WriteJSON(w io.Writer) error {
	rep := l.Status()
	rep.WorstSeverity = rep.Worst.String()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// FormatTable renders the end-of-run audit summary for the CLI log: one
// line per budget, worst severity first so a violated run's report leads
// with the violation. Nil or empty ledgers render an explicit placeholder.
func (l *Ledger) FormatTable() string {
	rep := l.Status()
	if len(rep.Budgets) == 0 {
		return "physics audit: no budgets observed\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "physics audit: %d exchanges, worst=%s, %d violation(s)\n",
		rep.Exchanges, rep.Worst, rep.Violations)
	fmt.Fprintf(&sb, "  %-28s %-8s %12s %12s %-9s %-9s %s\n",
		"budget", "mode", "rel", "ema", "step", "leak", "count")
	for _, b := range rep.Budgets {
		fmt.Fprintf(&sb, "  %-28s %-8s %12.4g %12.4g %-9s %-9s %d\n",
			b.Name, b.Mode, b.Rel, b.EMA, b.StepSev, b.LeakSev, b.Count)
	}
	return sb.String()
}
