package main

// Fleet-plane wiring for a running simulation: the run-event journal, the
// aggregator endpoint (-fleet-addr), the status publisher (-fleet-publish),
// the transport counter holder, the in-situ drop ledger and the
// per-incarnation trace writer. Everything here follows the nil-is-disabled
// idiom: wireFleet always returns a usable *fleetWire, and each leg that was
// not requested stays nil inside it, so the hot-path hooks cost one nil check.

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"time"

	"nektarg/internal/audit"
	"nektarg/internal/config"
	"nektarg/internal/fleet"
	"nektarg/internal/history"
	"nektarg/internal/monitor"
	"nektarg/internal/telemetry"
)

// fleetWire is the assembled fleet plane of one process.
type fleetWire struct {
	journal *fleet.Journal
	srv     *monitor.Server
	pub     *fleet.Publisher
	stopPub func()
	drops   *fleet.DropLedger
	traces  *fleet.TraceWriter
	tcp     *fleet.TCPStats
	hold    string
	logger  *slog.Logger
}

// wireFleet assembles the fleet plane. The journal opens whenever
// checkpointing is on (it lives in the checkpoint directory and records the
// same run the store snapshots); aggregator, publisher and trace writer each
// need their flag. tr is the TCP world this process is a rank of (nil =
// in-process). o is mutated: with a TCP transport the combined -trace-out
// file is replaced by per-incarnation files the trace writer maintains (a
// single file written at exit would vanish with a killed process and mix
// spans of different hop-clock eras).
func wireFleet(o *options, tr *config.Transport,
	reg *telemetry.Registry, mon *monitor.Monitor, ist *insituState) (*fleetWire, error) {
	fw := &fleetWire{hold: o.fleetHold, logger: o.logger}

	rank, kind := 0, "inproc"
	if tr != nil {
		rank, kind = tr.Rank, tr.Kind
	}

	if o.checkpointDir != "" {
		if err := os.MkdirAll(o.checkpointDir, 0o755); err != nil {
			return nil, err
		}
		j, err := fleet.OpenJournal(filepath.Join(o.checkpointDir, "journal.nkj"), rank, kind)
		if err != nil {
			return nil, err
		}
		fw.journal = j
	}

	// Watchdog severity transitions mirror into the journal; the volume is
	// bounded because Health only emits on transitions.
	if mon != nil && fw.journal != nil {
		j := fw.journal
		mon.Health().OnEvent(func(e monitor.Event) {
			j.Record(fleet.EventWatchdog, map[string]any{
				"watchdog": e.Watchdog,
				"track":    e.Track,
				"severity": e.Severity.String(),
				"message":  e.Message,
				"value":    e.Value,
			})
		})
	}

	if o.fleetAddr != "" {
		agg := fleet.NewAggregator()
		if fw.journal != nil {
			agg.ObserveJournal(fw.journal)
		}
		srv, err := agg.Serve(o.fleetAddr, "nektarg", fw.journal)
		if err != nil {
			return nil, err
		}
		fw.srv = srv
		o.logger.Info("fleet aggregator serving",
			"url", srv.URL(),
			"metrics", srv.URL()+"/cluster/metrics",
			"healthz", srv.URL()+"/cluster/healthz",
			"events", srv.URL()+"/events")
	}

	if tr != nil {
		fw.tcp = &fleet.TCPStats{}
		if mon != nil {
			mon.AddStatSource(fw.tcp.Source())
		}
	}

	if o.fleetPublish != "" {
		if mon == nil {
			return nil, fmt.Errorf("nektarg: -fleet-publish requires -monitor-addr (the published status carries the monitor's snapshots and verdict)")
		}
		fw.pub = fleet.NewPublisher(o.fleetPublish, mon, fmt.Sprintf("rank%d", rank), []int{rank}, kind, fw.journal)
		fw.pub.SetStride(o.fleetStride)
		// The ticker keeps the aggregator's view fresh through windows with
		// no exchanges — rendezvous, rollback, a peer's outage.
		fw.stopPub = fw.pub.Start(time.Second)
		fw.pub.PublishNow() //nolint:errcheck // best-effort; the ticker retries
	}

	if ist != nil && fw.journal != nil {
		q := ist.queue
		fw.drops = fleet.NewDropLedger(fw.journal, func() (int64, int64, int64) {
			qs := q.Stats()
			return qs.Published, qs.Delivered, qs.Dropped
		})
	}

	if tr != nil && reg != nil && o.traceOut != "" {
		dir := filepath.Dir(o.traceOut)
		base := strings.TrimSuffix(filepath.Base(o.traceOut), filepath.Ext(o.traceOut))
		fw.traces = fleet.NewTraceWriter(dir, base, rank, kind, reg.Recorders, fw.journal)
		o.traceOut = "" // report() must not also write a combined file
	}

	return fw, nil
}

// bindAudit routes audit-ledger violations into the run-event journal, so an
// operator replaying a failed run sees exactly which conservation budget broke
// and at which exchange. Nil journal or nil ledger no-op.
func (fw *fleetWire) bindAudit(led *audit.Ledger) {
	if fw.journal == nil || led == nil {
		return
	}
	j := fw.journal
	led.OnViolation(func(v audit.Violation) {
		j.Record(fleet.EventAuditViolation, map[string]any{
			"budget":   v.Budget,
			"kind":     v.Kind,
			"severity": v.Severity.String(),
			"value":    v.Value,
			"limit":    v.Limit,
			"exchange": v.Exchange,
			"message":  v.Message,
		})
	})
}

// bindHistory routes performance anomalies into the run-event journal, so a
// post-mortem shows "the step time regressed at exchange N" next to the
// checkpoint commits and watchdog transitions of the same run. Nil journal or
// nil plane no-op.
func (fw *fleetWire) bindHistory(h *history.Plane) {
	if fw.journal == nil || h == nil {
		return
	}
	j := fw.journal
	h.OnAnomaly(func(a history.Anomaly) {
		j.Record(fleet.EventPerfAnomaly, map[string]any{
			"kind":     a.Kind.String(),
			"series":   a.Series,
			"step":     a.Step,
			"value":    a.Value,
			"baseline": a.Baseline,
			"z":        a.Z,
			"profile":  a.ProfilePath,
		})
	})
}

// afterExchange is the per-exchange hook: publish the status, check the drop
// ledger, rewrite the incarnation's trace file. Every leg is nil-safe, so the
// drivers call it unconditionally.
func (fw *fleetWire) afterExchange(exchange int) {
	fw.pub.OnExchange(exchange)
	fw.drops.Check()
	if err := fw.traces.WriteNow(); err != nil && fw.logger != nil {
		fw.logger.Warn("trace write failed", "err", err.Error())
	}
}

// close publishes the final status, honors -fleet-hold, and shuts the
// aggregator and journal down.
func (fw *fleetWire) close() {
	if fw.stopPub != nil {
		fw.stopPub()
	}
	fw.pub.PublishNow() //nolint:errcheck // best-effort final state
	if fw.hold != "" && fw.srv != nil {
		fw.logger.Info("holding fleet endpoints open", "until", fw.hold)
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			if _, err := os.Stat(fw.hold); err == nil {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	if fw.srv != nil {
		fw.srv.Close() //nolint:errcheck // exiting anyway
	}
	fw.journal.Close() //nolint:errcheck // exiting anyway
}
