// Nektarg drives a coupled continuum-atomistic simulation described by a
// config.Config: overlapping spectral-element channel patches (NεκTαr-3D with
// the §3.2 interface conditions), embedded DPD regions (§3.3 coupling, Eq. 1
// unit scaling, Figure 5 time progression) optionally with platelets
// aggregating at a wall injury (Figure 10), and 1D peripheral trees on patch
// outlets. Every run takes one path: flags → Config → config.Build → run.
// Without -config the scenario flags generate the Config (a chain of
// -patches patches with a DPD region inside the last); with it the file is
// the Config, and the flags that shadow one of its blocks (-insitu*, -audit,
// -transport/-rank/-peers/-rendezvous-sec) override that block field by
// field. It prints interface-continuity and clot-growth diagnostics each
// exchange period and the overlap continuity of every coupled patch pair at
// the end.
//
// Usage:
//
//	go run ./cmd/nektarg [-config FILE | -patches N -order P -particles N
//	                      -platelets N -seed S -with1d -flux-scale S]
//	                     [-exchanges N] [-parallel N] [-vtk DIR]
//	                     [-telemetry] [-trace-out F] [-telemetry-out F]
//	                     [-monitor-addr :9090] [-log-level info] [-log-format text]
//	                     [-checkpoint-dir DIR] [-checkpoint-every N] [-resume]
//	                     [-max-restarts N] [-kill-at N] [-flight-max N]
//	                     [-insitu] [-insitu-stride N] [-insitu-policy P]
//	                     [-insitu-dir DIR] [-insitu-keep K] [-audit]
//	                     [-history] [-history-stride N] [-history-out FILE]
//	                     [-history-profile-dir DIR]
//	                     [-transport tcp -rank N -peers H:P,H:P,...]
//	                     [-fleet-addr :9190] [-fleet-publish URL] [-version]
//	go run ./cmd/nektarg trace-merge [-o out.json] [-strict] trace1.json trace2.json ...
//	go run ./cmd/nektarg events [-json] <checkpoint-dir>/journal.nkj
//	go run ./cmd/nektarg perf-report [-threshold F] old.json new.json
//
// -telemetry, -monitor-addr (live /metrics, /healthz, pprof and solver
// watchdogs; see internal/monitor), -audit (per-exchange conservation and
// coupling-fidelity budgets, internal/audit; -flux-scale != 1 is the fault it
// must catch), -history (bounded time series with anomaly baselines,
// internal/history) and -insitu (non-blocking snapshot stream to a live
// observer, internal/insitu) each switch on one observer plane; any of them
// implies telemetry recording.
//
// With -checkpoint-dir the run writes atomic, checksummed checkpoints every
// -checkpoint-every exchanges, keeps a run-event journal at
// <dir>/journal.nkj (read it with the events subcommand) and executes inside
// the recover-and-resume envelope (core.RunWithRecovery, a one-rank world
// of the same loop the TCP ranks run): a solver blow-up, watchdog trip or
// injected fault (-kill-at) dumps the flight recorder, reloads the last good
// checkpoint and continues to the same final state. -resume restarts a
// previous run from its newest checkpoint; a fresh run refuses a directory
// that holds another run's checkpoints.
//
// With -transport tcp the run is one rank of a multi-process world: every
// process runs the same scenario, -peers lists each rank's host:port in rank
// order, -rank selects this process's slot, and -checkpoint-dir is required.
// A killed process can simply be relaunched: the survivors re-dial, the world
// agrees on the common newest checkpoint, and every rank rolls back and
// continues (see core.RunDistributed). -fleet-addr serves the cluster
// observability plane on one process; the others point -fleet-publish at it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"nektarg/internal/audit"
	"nektarg/internal/checkpoint"
	"nektarg/internal/config"
	"nektarg/internal/core"
	"nektarg/internal/fleet"
	"nektarg/internal/geometry"
	"nektarg/internal/history"
	"nektarg/internal/insitu"
	"nektarg/internal/monitor"
	"nektarg/internal/mpi"
	"nektarg/internal/mpi/tcptransport"
	"nektarg/internal/nektar1d"
	"nektarg/internal/telemetry"
	"nektarg/internal/viz"
)

// options is everything the command line says that is not the scenario: one
// field per flag that does not shadow a config block.
type options struct {
	exchanges int // -exchanges: coupling exchange periods
	parallel  int // -parallel: intra-rank workers per solver (0 = leave the config's)
	vtkDir    string

	telemetry        bool   // -telemetry: print per-stage/traffic/gauge tables
	traceOut         string // -trace-out: Chrome trace_event JSON path
	telemetryOut     string // -telemetry-out: aggregate summary JSON path
	monitorAddr      string // -monitor-addr: live HTTP metrics/health endpoint
	flightMax        int    // -flight-max: per-run flight dump cap
	flightAnomalyMax int    // -flight-anomaly-max: anomaly flight-dump budget
	history          bool   // -history: performance-history time-series plane
	historyStride    int    // -history-stride: sample every N exchange periods
	historyOut       string // -history-out: write the history document JSON at exit
	historyProfDir   string // -history-profile-dir: anomaly-triggered pprof captures

	checkpointDir   string // -checkpoint-dir: managed store directory ("" = no checkpointing)
	checkpointEvery int    // -checkpoint-every: period in exchanges
	resume          bool   // -resume: reload the newest checkpoint before running
	maxRestarts     int    // -max-restarts: per-position restart budget
	killAt          int    // -kill-at: one-shot injected panic after this exchange (0 = off)

	fleetAddr    string // -fleet-addr: serve /cluster/* and /events
	fleetPublish string // -fleet-publish: aggregator base URL to POST status to
	fleetStride  int    // -fleet-stride: publish every N exchanges
	fleetHold    string // -fleet-hold: keep serving after the run until this file exists

	version                bool // -version: print build provenance and exit
	cpuProfile, memProfile string

	out    io.Writer // reports and tables (os.Stdout)
	logger *slog.Logger
}

// recording reports whether the recorders are needed: asking for a trace, a
// summary file, a live monitor or any observer plane implies them.
func (o options) recording(cfg *config.Config) bool {
	return o.telemetry || o.traceOut != "" || o.telemetryOut != "" || o.monitorAddr != "" ||
		o.history || cfg.Insitu != nil || cfg.Audit != nil
}

// tcp returns the config's transport block when it selects a TCP world, nil
// for the in-process default.
func tcp(cfg *config.Config) *config.Transport {
	if cfg.Transport != nil && cfg.Transport.Kind == "tcp" {
		return cfg.Transport
	}
	return nil
}

// builtinConfig is the scenario the -patches/-order/-particles/-platelets/
// -seed/-with1d/-flux-scale flags describe: a chain of overlapping channel
// patches (patch i spans x in [i, i+1.5], one third shared with each
// neighbour), a DPD slab inside the last one, optionally platelets at a wall
// injury and a 1D peripheral tree on the last patch's outlet.
func builtinConfig(patches, order, particles, platelets int, seed int64, with1D bool, fluxScale float64) (*config.Config, error) {
	if patches < 1 {
		return nil, errors.New("nektarg: need at least one patch")
	}
	cfg := &config.Config{}
	name := func(i int) string { return fmt.Sprintf("patch%d", i) }
	for i := 0; i < patches; i++ {
		cfg.Patches = append(cfg.Patches, config.Patch{
			Name: name(i), Origin: config.Vec{float64(i)},
			Elements: [3]int{3, 1, 2}, Order: order, Size: config.Vec{1.5, 1, 1},
			Periodic: [3]bool{false, true, false},
			Nu:       0.5, Dt: 0.01, Force: config.Vec{1}, Initial: "poiseuille",
		})
		if i > 0 {
			cfg.Couplings = append(cfg.Couplings,
				config.Coupling{Donor: name(i - 1), Receiver: name(i), Face: "x0"},
				config.Coupling{Donor: name(i), Receiver: name(i - 1), Face: "x1"})
		}
	}
	region := config.Region{
		Name: "insert", Origin: config.Vec{float64(patches-1) + 0.6, 0.4, 0.05},
		Box: config.Vec{10, 10, 10}, Particles: particles, Rho: 3, KBT: 0.2, Dt: 0.005,
		Seed: uint64(seed), Walls: "zslab",
		NSUnits: config.Units{L: 1e-3, Nu: 0.5}, DPDUnits: config.Units{L: 2e-5, Nu: 0.2},
		Boost: 120, FluxScale: fluxScale,
	}
	if platelets > 0 {
		region.Platelets = &config.Platelets{
			Count: platelets, Delay: 0.1,
			Sites:   []config.Vec{{3, 5, 0.3}, {4, 5, 0.3}, {5, 5, 0.3}, {6, 5, 0.3}, {7, 5, 0.3}},
			SeedBox: [2]config.Vec{{0.5, 0.5, 0.3}, {9.5, 9.5, 2.5}},
		}
	}
	cfg.Regions = []config.Region{region}
	if with1D {
		cfg.Outlets = []config.Outlet{{Patch: name(patches - 1), Face: "x1"}}
	}
	return cfg, nil
}

// insituState is the running in-situ pipeline: closed and drained at exit so
// the final report can print exact conservation numbers.
type insituState struct {
	queue *insitu.Queue
	obs   *insitu.Observer
	done  chan struct{}
}

// startInsitu builds the in-process pipeline the config's insitu block asks
// for over the fully assembled metasolver, launches the observer goroutine
// and publishes every stride-th exchange. Nil spec = off.
func startInsitu(spec *config.Insitu, meta *core.Metasolver, reg *telemetry.Registry, logger *slog.Logger) (*insituState, error) {
	if spec == nil {
		return nil, nil
	}
	icfg, err := spec.InsituConfig()
	if err != nil {
		return nil, err
	}
	if spec.Dir != "" {
		if err := os.MkdirAll(spec.Dir, 0o755); err != nil {
			return nil, err
		}
	}
	pub, q := insitu.NewPipeline(icfg)
	obs := insitu.NewObserver(insitu.ObserverConfig{
		Sources: insitu.ExpectedSources(meta),
		Dir:     spec.Dir,
		Keep:    spec.Keep,
		Rec:     reg.NewRecorder("observer"),
	})
	obs.SetStatsSource(q.Stats)
	meta.EnableInsitu(pub)
	st := &insituState{queue: q, obs: obs, done: make(chan struct{})}
	go func() {
		defer close(st.done)
		obs.Run(q)
	}()
	logger.Info("in-situ observation enabled",
		"stride", icfg.Stride, "policy", icfg.Policy.String(),
		"queue_cap", icfg.QueueCap, "dir", spec.Dir)
	return st, nil
}

// finish closes the pipeline, waits for the observer to drain and logs the
// drop-accounting summary (the published == delivered + dropped law). A
// second call is a no-op, so run can both call it before the report and
// defer it for the error paths.
func (st *insituState) finish(logger *slog.Logger) {
	if st == nil || st.queue == nil {
		return
	}
	st.queue.Close()
	<-st.done
	qs := st.queue.Stats()
	as := st.obs.AssemblerStats()
	st.queue = nil
	logger.Info("in-situ pipeline drained",
		"published", qs.Published, "delivered", qs.Delivered, "dropped", qs.Dropped,
		"bytes", qs.Bytes, "frames", as.Frames, "abandoned", as.Abandoned,
		"staleness_steps", as.Staleness)
	if qs.Published != qs.Delivered+qs.Dropped {
		logger.Error("in-situ conservation violated",
			"published", qs.Published, "delivered", qs.Delivered, "dropped", qs.Dropped)
	}
}

// setup installs the observer planes on the built metasolver — recorders,
// then (with -monitor-addr) watchdogs and the live HTTP monitor, the audit
// ledger the config's audit block asks for, the history plane — and returns
// nils when nothing was requested, which leaves every Rec and Watch field nil
// and instrumentation on its no-op fast path. A non-nil server must be
// closed.
func (o options) setup(cfg *config.Config, meta *core.Metasolver) (*telemetry.Registry, *monitor.Monitor, *monitor.Server, error) {
	meta.SetLogger(o.logger)
	if !o.recording(cfg) {
		return nil, nil, nil, nil
	}
	reg := telemetry.NewRegistry()
	meta.EnableTelemetry(reg)
	var mon *monitor.Monitor
	if o.monitorAddr != "" {
		opts := monitor.Options{FlightLimit: o.flightMax, FlightAnomalyLimit: o.flightAnomalyMax}
		if o.checkpointDir != "" {
			// Monitor-side dumps (manual POST /flight, anomaly captures) land
			// next to the recovery envelope's, not in the working directory.
			opts.FlightDir = filepath.Join(o.checkpointDir, "flight")
		}
		mon = monitor.New(reg, opts)
		mon.Health().SetLogger(o.logger)
		meta.EnableMonitoring(mon.Health())
	}
	if cfg.Audit != nil {
		// The ledger's watchdog bundle rides the health plane when a monitor
		// exists (audit criticals then trip /healthz and fire flight dumps via
		// the existing OnTrip wiring); without one it runs standalone.
		var watch *monitor.Watchdogs
		if mon != nil {
			watch = mon.Health().Watch("audit")
		}
		led := audit.New(audit.Options{
			Rec:       reg.NewRecorder("audit"),
			Watch:     watch,
			Tolerance: audit.Tolerance{Warn: cfg.Audit.Warn, Critical: cfg.Audit.Critical},
		})
		meta.EnableAudit(led)
		if mon != nil {
			// Only wire a real ledger: a typed-nil AuditSource would make
			// /audit serve an empty document instead of 404ing.
			mon.SetAuditSource(led)
			mon.AddStatSource(led.Stats)
		}
		o.logger.Info("physics audit ledger enabled", "monitored", mon != nil)
	}
	if o.history {
		plane := history.New(history.Options{Stride: o.historyStride, ProfileDir: o.historyProfDir})
		meta.EnableHistory(plane)
		if mon != nil {
			mon.SetHistorySource(plane)
			mon.AddStatSource(plane.Stats)
			// Anomalies fire a flight dump against the separate anomaly
			// budget: the context of a slowdown (recent spans, gauges,
			// imbalance) captured at the moment it was detected, without
			// drawing down the watchdog/panic dump cap.
			flight := mon.Flight()
			plane.OnAnomaly(func(a history.Anomaly) {
				flight.DumpAnomaly(fmt.Sprintf("perf-anomaly %s: %s z=%.1f at step %d", //nolint:errcheck // best-effort capture
					a.Kind, a.Series, a.Z, a.Step))
			})
		}
		o.logger.Info("performance history enabled",
			"stride", plane.Stride(), "profiles", o.historyProfDir != "", "monitored", mon != nil)
	}
	if mon == nil {
		return reg, nil, nil, nil
	}
	srv, err := mon.Serve(o.monitorAddr)
	if err != nil {
		return nil, nil, nil, err
	}
	o.logger.Info("live monitor serving",
		"url", srv.URL(), "metrics", srv.URL()+"/metrics", "healthz", srv.URL()+"/healthz")
	return reg, mon, srv, nil
}

// report prints the aggregate tables and writes the requested trace/summary
// files.
func (o options) report(reg *telemetry.Registry, mon *monitor.Monitor, meta *core.Metasolver) error {
	if reg == nil {
		return nil
	}
	recs := reg.Recorders()
	// write streams one requested output file and says so.
	write := func(path, said string, fn func(io.Writer) error) error {
		if path == "" {
			return nil
		}
		if err := writeFileWith(path, fn); err != nil {
			return err
		}
		fmt.Fprintf(o.out, said, path)
		return nil
	}
	if o.telemetry {
		cs := telemetry.AggregateRecorders(recs)
		fmt.Fprintln(o.out, "\n--- telemetry: per-stage timings ---")
		fmt.Fprint(o.out, cs.FormatStageTable())
		fmt.Fprintln(o.out, "--- telemetry: gauges ---")
		fmt.Fprint(o.out, cs.FormatGaugeTable())
		if t := cs.Traffic.Total(); t.Msgs > 0 {
			fmt.Fprintln(o.out, "--- telemetry: traffic ---")
			fmt.Fprint(o.out, cs.FormatTrafficTable())
		}
		imb := monitor.AnalyzeImbalance(snapshotRecorders(recs))
		if len(imb) > 0 {
			fmt.Fprintln(o.out, "--- telemetry: load imbalance ---")
			fmt.Fprint(o.out, monitor.FormatImbalanceTable(imb))
		}
		fmt.Fprintf(o.out, "coupling overhead: %.2f%% of step time\n", 100*meta.CouplingOverhead())
	}
	if led := meta.Audit(); led != nil {
		fmt.Fprintln(o.out, "\n--- physics audit ---")
		fmt.Fprint(o.out, led.FormatTable())
		if !led.Healthy() {
			o.logger.Error("physics audit finished with a latched critical budget",
				"worst", led.Status().Worst.String(), "violations", led.Status().Violations)
		}
	}
	if h := meta.History(); h != nil {
		fmt.Fprintln(o.out, "\n--- performance history ---")
		fmt.Fprintf(o.out, "samples=%d anomalies=%d sampling_cost=%v\n",
			h.Samples(), h.AnomalyTotal(), h.SampleCost().Round(time.Microsecond))
		for _, a := range h.Anomalies() {
			fmt.Fprintf(o.out, "  %-16s %-36s step=%-6d value=%.4g baseline=%.4g z=%.1f\n",
				a.Kind, a.Series, a.Step, a.Value, a.Baseline, a.Z)
			if a.ProfilePath != "" {
				fmt.Fprintf(o.out, "  %-16s profile: %s\n", "", a.ProfilePath)
			}
		}
		if h.AnomalyTotal() > 0 {
			o.logger.Warn("run finished with performance anomalies", "total", h.AnomalyTotal())
		}
		err := write(o.historyOut, "wrote performance history to %s (diff two with: nektarg perf-report old.json new.json)\n",
			func(w io.Writer) error {
				doc, err := h.HistoryJSON("", 0, 0)
				if err != nil {
					return err
				}
				_, err = w.Write(doc)
				return err
			})
		if err != nil {
			return err
		}
	}
	if mon != nil && !mon.Health().Healthy() {
		v := mon.Health().Verdict()
		o.logger.Error("run finished unhealthy", "trips", v.Trips, "events", v.Events)
	}
	err := write(o.traceOut, "wrote Chrome trace to %s (open in chrome://tracing or https://ui.perfetto.dev)\n",
		func(w io.Writer) error { return telemetry.WriteChromeTrace(w, recs) })
	if err != nil {
		return err
	}
	return write(o.telemetryOut, "wrote telemetry summary to %s\n",
		func(w io.Writer) error { return telemetry.WriteSummary(w, recs) })
}

// drive advances the metasolver to the target exchange count, running
// onExchange (diagnostics, fault demo) and the fleet hook after each one.
// Without -checkpoint-dir it is a plain loop where any failure is fatal; with
// it, the run executes inside core's recover-and-resume loop — as a one-rank
// world through core.RunWithRecovery, or as one rank of the TCP world tr
// describes through core.RunDistributed — with periodic atomic checkpoints,
// flight dumps on faults and reload-and-continue.
func (o options) drive(meta *core.Metasolver, networks map[string]*nektar1d.Network, tr *config.Transport,
	onExchange func(int) error, reg *telemetry.Registry, mon *monitor.Monitor, fw *fleetWire) error {
	hook := func(e int) error {
		err := onExchange(e)
		fw.afterExchange(e)
		return err
	}
	if o.checkpointDir == "" {
		for meta.Exchanges < o.exchanges {
			if err := meta.Advance(1); err != nil {
				return err
			}
			if err := hook(meta.Exchanges); err != nil {
				return err
			}
		}
		return nil
	}
	ck := &core.Checkpointer{
		Meta:     meta,
		Networks: networks,
		Store:    &checkpoint.Store{Dir: o.checkpointDir},
		Every:    o.checkpointEvery,
		Journal:  fw.journal,
		Log:      o.logger,
	}
	if o.resume && tr == nil {
		// Distributed runs skip this: the resume protocol inside
		// RunDistributed always rolls every rank to the world's common
		// newest checkpoint on connect.
		switch _, err := ck.Resume(); {
		case err == nil:
			// Resume() already logged the path and exchange.
		case errors.Is(err, os.ErrNotExist):
			o.logger.Info("no checkpoint to resume from; starting fresh", "dir", o.checkpointDir)
		default:
			return err
		}
	}
	var health *monitor.Health
	if mon != nil {
		health = mon.Health()
	}
	// The flight recorder always rides along with checkpointing: without
	// -telemetry it still captures the failure reason, verdict and health
	// timeline; with it, every track's recent spans and gauges too.
	var source func() []*telemetry.Recorder
	if reg != nil {
		source = reg.Recorders
	}
	flight := monitor.NewFlightRecorder(filepath.Join(o.checkpointDir, "flight"), source, health)
	if o.flightMax > 0 {
		flight.SetLimit(o.flightMax)
	}
	if j := fw.journal; j != nil {
		flight.OnDump(func(path, reason string) {
			j.Record(fleet.EventFlightDump, map[string]any{"path": path, "reason": reason})
		})
	}
	if tr == nil {
		return core.RunWithRecovery(ck, o.exchanges, core.RecoveryOptions{
			MaxRestarts: o.maxRestarts,
			Flight:      flight,
			Health:      health,
			OnExchange:  hook,
			Log:         o.logger,
		})
	}
	rendez := time.Duration(tr.RendezvousSec) * time.Second
	if rendez <= 0 {
		rendez = 30 * time.Second
	}
	o.logger.Info("joining tcp world",
		"rank", tr.Rank, "size", len(tr.Peers), "listen", tr.Peers[tr.Rank])
	// The holder folds each dead incarnation's counters into a cumulative
	// base, so redials don't reset the transport stats.
	dial := fw.tcp.Wrap(func() (*tcptransport.Transport, error) {
		return tcptransport.New(tr.Rank, tr.Peers, tcptransport.Options{RendezvousTimeout: rendez})
	})
	return core.RunDistributed(ck, o.exchanges, core.DistributedOptions{
		Dial:        dial,
		MaxRestarts: o.maxRestarts,
		Flight:      flight,
		Health:      health,
		OnExchange:  func(_ *mpi.Comm, e int) error { return hook(e) },
		Journal:     fw.journal,
		Log:         o.logger,
	})
}

// run builds the scenario cfg describes and drives it as o says: the one
// path from a Config to a finished simulation. Everything it starts is
// stopped before it returns.
func run(cfg *config.Config, o options) error {
	if o.resume && o.checkpointDir == "" {
		return errors.New("nektarg: -resume requires -checkpoint-dir")
	}
	if err := cfg.Transport.Validate(); err != nil {
		return err
	}
	tr := tcp(cfg)
	if tr != nil && o.checkpointDir == "" {
		return errors.New("nektarg: -transport tcp requires -checkpoint-dir (each process rolls back from its own store after a failure)")
	}
	b, err := cfg.Build()
	if err != nil {
		return err
	}
	meta := b.Meta
	// -parallel overrides any per-patch/per-region "parallel" values of the
	// config; 0 leaves them in place.
	meta.SetParallelism(o.parallel)

	reg, mon, srv, err := o.setup(cfg, meta)
	if err != nil {
		return err
	}
	if srv != nil {
		defer srv.Close() //nolint:errcheck // returning anyway
	}
	ist, err := startInsitu(cfg.Insitu, meta, reg, o.logger)
	if err != nil {
		return err
	}
	defer ist.finish(o.logger)
	if mon != nil && ist != nil {
		mon.SetSnapshotSource(ist.obs)
	}
	fw, err := wireFleet(&o, tr, reg, mon, ist)
	if err != nil {
		return err
	}
	defer fw.close()
	fw.bindAudit(meta.Audit())
	fw.bindHistory(meta.History())

	dof, particles := 0, 0
	for _, p := range meta.Patches {
		dof += 4 * p.Solver.G.NumNodes()
	}
	for _, a := range meta.Atomistic {
		particles += len(a.Sys.Particles)
	}
	o.logger.Info("simulation configured",
		"patches", len(meta.Patches), "couplings", len(meta.Couplings), "regions", len(meta.Atomistic),
		"outlets", len(meta.Outlets), "dof", dof, "particles", particles,
		"dpd_steps_per_ns", meta.DPDStepsPerNS, "ns_steps_per_exchange", meta.NSStepsPerExchange)

	killed := false
	onExchange := func(e int) error {
		attrs := []any{"exchange", e, "t_ns", meta.Patches[0].Solver.Time, "max_div", maxDivergence(meta.Patches)}
		for _, a := range meta.Atomistic {
			rms, n := meta.InterfaceContinuity(a, 2.5)
			attrs = append(attrs, a.Name+"_iface_rms", rms, a.Name+"_probes", n)
			if m := b.Platelets[a.Name]; m != nil {
				passive, triggered, adhered := m.Counts(a.Sys)
				attrs = append(attrs, a.Name+"_clot", adhered, a.Name+"_triggered", triggered, a.Name+"_passive", passive)
			}
		}
		for _, out := range meta.Outlets {
			// Advance has already stepped the outlet: report the flow it was
			// handed and the inlet pressure the tree answers with.
			attrs = append(attrs, out.Name()+"_q_1d", out.FaceFlow()*out.AreaScale,
				out.Name()+"_p_1d", out.Inlet.Seg.Pressure(0))
		}
		o.logger.Info("exchange complete", attrs...)
		if o.killAt > 0 && e == o.killAt && !killed {
			killed = true
			panic(fmt.Sprintf("injected fault after exchange %d (-kill-at)", e))
		}
		return nil
	}
	err = o.drive(meta, b.Networks, tr, onExchange, reg, mon, fw)
	ist.finish(o.logger)
	if err != nil {
		return fmt.Errorf("run failed: %w", err)
	}

	if o.vtkDir != "" {
		if err := os.MkdirAll(o.vtkDir, 0o755); err != nil {
			return err
		}
		scene := &viz.Scene{Meta: meta}
		err := scene.Write(func(name string) (io.WriteCloser, error) {
			return os.Create(filepath.Join(o.vtkDir, name))
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(o.out, "\nwrote VTK scene to %s/\n", o.vtkDir)
	}
	reportOverlapContinuity(o.out, meta.Couplings)
	return o.report(reg, mon, meta)
}

// reportOverlapContinuity prints, for every coupled patch pair, the RMS
// velocity mismatch at nine fixed points of their overlap box: 0.2/0.5/0.8
// of its x extent, mid y, the z quarter points.
func reportOverlapContinuity(w io.Writer, couplings []*core.PatchCoupling) {
	seen := map[[2]string]bool{}
	for _, c := range couplings {
		a, b := c.Donor, c.Receiver
		if seen[[2]string{b.Name, a.Name}] || seen[[2]string{a.Name, b.Name}] {
			continue
		}
		if len(seen) == 0 {
			fmt.Fprintln(w, "\noverlap continuity (RMS velocity mismatch):")
		}
		seen[[2]string{a.Name, b.Name}] = true
		ga, gb := a.Solver.G, b.Solver.G
		lo := geometry.Vec3{X: math.Max(a.Origin.X, b.Origin.X), Y: math.Max(a.Origin.Y, b.Origin.Y), Z: math.Max(a.Origin.Z, b.Origin.Z)}
		ext := geometry.Vec3{
			X: math.Min(a.Origin.X+ga.Lx, b.Origin.X+gb.Lx) - lo.X,
			Y: math.Min(a.Origin.Y+ga.Ly, b.Origin.Y+gb.Ly) - lo.Y,
			Z: math.Min(a.Origin.Z+ga.Lz, b.Origin.Z+gb.Lz) - lo.Z,
		}
		var sum float64
		var n int
		for _, fx := range []float64{0.2, 0.5, 0.8} {
			for _, fz := range []float64{0.25, 0.5, 0.75} {
				g := lo.Add(ext.Mul(geometry.Vec3{X: fx, Y: 0.5, Z: fz}))
				ua, va, wa := a.SampleVelocity(g)
				ub, vb, wb := b.SampleVelocity(g)
				sum += geometry.Vec3{X: ua - ub, Y: va - vb, Z: wa - wb}.Norm2()
				n++
			}
		}
		fmt.Fprintf(w, "  %s-%s: %.3e\n", a.Name, b.Name, math.Sqrt(sum/float64(n)))
	}
}

// maxDivergence returns the worst incompressibility violation over patches.
func maxDivergence(patches []*core.ContinuumPatch) float64 {
	var m float64
	for _, p := range patches {
		if d := p.Solver.MaxDivergence(); d > m {
			m = d
		}
	}
	return m
}

// snapshotRecorders captures every recorder's aggregates for the imbalance
// analyzer.
func snapshotRecorders(recs []*telemetry.Recorder) []*telemetry.Snapshot {
	snaps := make([]*telemetry.Snapshot, 0, len(recs))
	for _, r := range recs {
		if s := r.Snapshot(); s != nil {
			snaps = append(snaps, s)
		}
	}
	return snaps
}

// writeFileWith creates path and streams fn into it.
func writeFileWith(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseArgs turns the command line into the run's Config and options. The
// scenario flags generate the Config unless -config names a file; the flags
// that shadow a config block are then applied onto it — only those the
// command line actually set, so a file's block survives unless overridden.
func parseArgs(fs *flag.FlagSet, args []string) (cfg *config.Config, o options, err error) {
	nPatches := fs.Int("patches", 2, "number of overlapping continuum patches")
	fs.IntVar(&o.exchanges, "exchanges", 6, "coupling exchange periods")
	nParticles := fs.Int("particles", 2400, "DPD solvent particles")
	nPlatelets := fs.Int("platelets", 40, "platelets seeded in the DPD region (0 = off)")
	order := fs.Int("order", 4, "spectral element polynomial order")
	fs.IntVar(&o.parallel, "parallel", 0, "intra-rank workers per solver: SEM element tiles and DPD force tiles (0 = per-solver defaults, -1 = all cores; overrides config; output is bit-identical for any value)")
	seed := fs.Int64("seed", 1, "random seed")
	fs.StringVar(&o.vtkDir, "vtk", "", "directory for final-state VTK output (empty = off)")
	with1D := fs.Bool("with1d", false, "attach a 1D fractal peripheral tree to the last patch outlet")
	configPath := fs.String("config", "", "JSON simulation config (replaces the built-in scenario flags)")
	fs.BoolVar(&o.telemetry, "telemetry", false, "record per-rank stage timers/gauges and print the aggregate tables")
	fs.StringVar(&o.traceOut, "trace-out", "", "write a Chrome trace_event JSON (implies telemetry recording)")
	fs.StringVar(&o.telemetryOut, "telemetry-out", "", "write the aggregate telemetry summary JSON (implies telemetry recording)")
	fs.StringVar(&o.monitorAddr, "monitor-addr", "", "serve live /metrics, /healthz and /debug/pprof on this address (e.g. :9090; implies telemetry recording and solver watchdogs)")
	logLevel := fs.String("log-level", "info", "structured log level: debug|info|warn|error")
	logFormat := fs.String("log-format", "text", "structured log format: text|json")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a pprof heap profile to this file at exit")
	fs.StringVar(&o.checkpointDir, "checkpoint-dir", "", "managed checkpoint store directory (enables the recover-and-resume envelope)")
	fs.IntVar(&o.checkpointEvery, "checkpoint-every", 1, "checkpoint period in completed exchanges (with -checkpoint-dir; <= 0 writes only the baseline)")
	fs.BoolVar(&o.resume, "resume", false, "resume from the newest checkpoint in -checkpoint-dir before running")
	fs.IntVar(&o.maxRestarts, "max-restarts", core.DefaultMaxRestarts, "per-position restart budget of the recovery loop")
	fs.IntVar(&o.killAt, "kill-at", 0, "inject a one-shot panic after this exchange (fault-injection demo; survivable with -checkpoint-dir)")
	fs.IntVar(&o.flightMax, "flight-max", monitor.DefaultFlightLimit, "per-run flight dump cap")
	fs.IntVar(&o.flightAnomalyMax, "flight-anomaly-max", monitor.DefaultAnomalyFlightLimit, "per-run cap on performance-anomaly flight dumps (a budget separate from -flight-max)")
	fs.BoolVar(&o.history, "history", false, "enable the performance-history plane: bounded time-series store, anomaly baselines, optional continuous profiling (implies telemetry recording; pairs with -monitor-addr for GET /history and /anomalies)")
	fs.IntVar(&o.historyStride, "history-stride", 1, "sample the history plane every N exchange periods")
	fs.StringVar(&o.historyOut, "history-out", "", "write the full history document JSON at exit (diff two with the perf-report subcommand)")
	fs.StringVar(&o.historyProfDir, "history-profile-dir", "", "directory for anomaly-triggered pprof CPU profile auto-capture (empty = off; incompatible captures, e.g. under -cpuprofile, are skipped)")
	insituOn := fs.Bool("insitu", false, "enable live in-situ observation: non-blocking snapshot publishing to an observer (implies telemetry recording; pairs with -monitor-addr for /snapshot)")
	insituStride := fs.Int("insitu-stride", 1, "publish a snapshot every N exchange periods")
	insituPolicy := fs.String("insitu-policy", "drop-oldest", "queue drop policy: drop-oldest|drop-newest")
	insituDir := fs.String("insitu-dir", "", "rolling VTK time-series directory (empty = in-memory frames only)")
	insituKeep := fs.Int("insitu-keep", insitu.DefaultKeep, "frames kept in the rolling VTK series")
	auditOn := fs.Bool("audit", false, "enable the physics audit ledger: per-exchange conservation and coupling-fidelity budgets (implies telemetry recording; pairs with -monitor-addr for GET /audit)")
	fluxScale := fs.Float64("flux-scale", 1, "scale applied to the 3D->DPD interface velocity trace at application (a value != 1 is a deliberate conservation fault the audit ledger must catch)")
	fs.StringVar(&o.fleetAddr, "fleet-addr", "", "serve the fleet aggregation endpoints (/cluster/metrics, /cluster/healthz, /cluster/imbalance, /events) on this address (e.g. :9190)")
	fs.StringVar(&o.fleetPublish, "fleet-publish", "", "base URL of a fleet aggregator to publish this process's status to (e.g. http://127.0.0.1:9190; requires -monitor-addr)")
	fs.IntVar(&o.fleetStride, "fleet-stride", 1, "publish to the fleet aggregator every N exchanges")
	fs.StringVar(&o.fleetHold, "fleet-hold", "", "after the run, keep serving -fleet-addr until this file exists (for external scrapers)")
	transportKind := fs.String("transport", "", "rank transport: inproc (default) or tcp — one OS process per rank; tcp needs -rank, -peers and -checkpoint-dir")
	rank := fs.Int("rank", -1, "this process's world rank (with -transport tcp)")
	peers := fs.String("peers", "", "comma-separated host:port for every rank in rank order (with -transport tcp); this process listens at its own entry")
	rendezSec := fs.Int("rendezvous-sec", 0, "seconds the tcp rendezvous waits for the other processes (default 30)")
	fs.BoolVar(&o.version, "version", false, "print build provenance and exit")
	if err = fs.Parse(args); err != nil {
		return nil, o, err
	}
	o.out = os.Stdout
	if o.logger, err = monitor.NewLogger(os.Stderr, *logLevel, *logFormat); err != nil {
		return nil, o, err
	}

	if *configPath == "" {
		cfg, err = builtinConfig(*nPatches, *order, *nParticles, *nPlatelets, *seed, *with1D, *fluxScale)
	} else {
		var f *os.File
		if f, err = os.Open(*configPath); err == nil {
			cfg, err = config.Load(f)
			f.Close()
		}
	}
	if err != nil {
		return nil, o, err
	}
	// Visit walks the set flags in name order, so -insitu creates its block
	// before the flags that refine it; a refining flag without a block (e.g.
	// -insitu-stride alone) changes nothing.
	transport := func() *config.Transport {
		if cfg.Transport == nil {
			cfg.Transport = &config.Transport{}
		}
		return cfg.Transport
	}
	fs.Visit(func(f *flag.Flag) {
		switch in := cfg.Insitu; f.Name {
		case "insitu":
			if *insituOn && in == nil {
				cfg.Insitu = &config.Insitu{Stride: *insituStride, Policy: *insituPolicy, Dir: *insituDir, Keep: *insituKeep}
			}
		case "insitu-stride":
			if in != nil {
				in.Stride = *insituStride
			}
		case "insitu-policy":
			if in != nil {
				in.Policy = *insituPolicy
			}
		case "insitu-dir":
			if in != nil {
				in.Dir = *insituDir
			}
		case "insitu-keep":
			if in != nil {
				in.Keep = *insituKeep
			}
		case "audit":
			if *auditOn && cfg.Audit == nil {
				cfg.Audit = &config.Audit{}
			}
		case "transport":
			transport().Kind = *transportKind
		case "rank":
			transport().Rank = *rank
		case "peers":
			transport().Peers = strings.Split(*peers, ",")
		case "rendezvous-sec":
			transport().RendezvousSec = *rendezSec
		}
	})
	return cfg, o, nil
}

func main() {
	// Observability subcommands run on files, not flags — dispatch before the
	// simulation flag set parses.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "trace-merge":
			runTraceMerge(os.Args[2:])
			return
		case "events":
			runEvents(os.Args[2:])
			return
		case "perf-report":
			runPerfReport(os.Args[2:])
			return
		}
	}
	cfg, o, err := parseArgs(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	if o.version {
		fmt.Println(monitor.ReadBuildInfo().String())
		return
	}
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	err = run(cfg, o)
	if o.memProfile != "" {
		runtime.GC()
		if merr := writeFileWith(o.memProfile, pprof.WriteHeapProfile); merr != nil {
			o.logger.Error("heap profile not written", "err", merr)
		}
	}
	if err != nil {
		o.logger.Error(err.Error())
		pprof.StopCPUProfile()
		os.Exit(1)
	}
}
