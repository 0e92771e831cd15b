package core

// Performance-history acceptance tests over the full three-solver stack: the
// induced-slowdown end-to-end check the plane exists for (a deterministic
// mid-run step-time perturbation must fire exactly one typed anomaly,
// auto-capture a pprof profile, write an anomaly flight dump and land in the
// run-event journal, all visible over HTTP), the unperturbed control run
// staying silent, the <1%-of-step-time sampling budget, the disabled-path
// zero-alloc guarantee, and checkpoint resume continuity of the baselines.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"nektarg/internal/checkpoint"
	"nektarg/internal/dpd"
	"nektarg/internal/fleet"
	"nektarg/internal/history"
	"nektarg/internal/monitor"
	"nektarg/internal/telemetry"
)

// historyTestOptions arms the detector early (the test scenarios run tens of
// exchanges, not thousands) and skips the runtime series so the alarmable
// series set is exactly the solver's own signals.
func historyTestOptions() history.Options {
	return history.Options{Warmup: 8, Sustain: 3, NoRuntime: true}
}

// wireHistory attaches telemetry and a history plane to a restart scenario.
func wireHistory(sc *restartScenario, opts history.Options) *history.Plane {
	reg := telemetry.NewRegistry()
	sc.m.EnableTelemetry(reg)
	h := history.New(opts)
	sc.m.EnableHistory(h)
	return h
}

// TestHistoryControlRunNoAnomalies is the unfaulted control: an unperturbed
// coupled run must finish with zero anomalies — the detector would be
// useless if healthy jitter tripped it.
func TestHistoryControlRunNoAnomalies(t *testing.T) {
	sc := buildRestartScenario(t)
	sc.m.Atomistic[0].Sys.FillRandom(400, 0)
	h := wireHistory(sc, historyTestOptions())
	sc.advance(t, 16)
	if n := h.AnomalyTotal(); n != 0 {
		t.Fatalf("control run fired %d anomalies, want 0: %+v", n, h.Anomalies())
	}
	if h.Samples() != 16 {
		t.Fatalf("samples = %d, want 16 (stride 1)", h.Samples())
	}
	// The sample must actually cover the solver: step time, per-stage
	// seconds and at least one CG gauge series.
	doc := h.Doc("", -1, 0)
	var haveStep, haveStage, haveIters bool
	for _, s := range doc.Series {
		haveStep = haveStep || s.Name == "step.seconds"
		haveStage = haveStage || strings.HasPrefix(s.Name, "stage.")
		haveIters = haveIters || strings.HasSuffix(s.Name, ".iters")
	}
	if !haveStep || !haveStage || !haveIters {
		t.Fatalf("sample coverage step=%v stage=%v iters=%v, want all (series %d)",
			haveStep, haveStage, haveIters, len(doc.Series))
	}
}

// sleepyBond is a stateless bonded "force" that adds nothing and sleeps once
// per force evaluation, i.e. once per DPD step: a step-time perturbation
// inside the meta.step span that leaves the physics trajectory untouched.
type sleepyBond time.Duration

func (d sleepyBond) AddForces(*dpd.System) { time.Sleep(time.Duration(d)) }

// TestHistoryInducedSlowdownEndToEnd injects a deterministic mid-run
// step-time perturbation (a sleepyBond on the scenario's DPD region) into an
// otherwise identical run and requires the full detection chain:
// exactly one step-time anomaly, with an auto-captured pprof profile, an
// anomaly flight dump charged to its own budget, a perf-anomaly record in
// the run-event journal, and the verdicts visible on GET /anomalies,
// GET /history and the fleet's /cluster/history rollup.
func TestHistoryInducedSlowdownEndToEnd(t *testing.T) {
	sc := buildRestartScenario(t)
	sc.m.Atomistic[0].Sys.FillRandom(400, 0)

	reg := telemetry.NewRegistry()
	sc.m.EnableTelemetry(reg)
	profDir := t.TempDir()
	opts := historyTestOptions()
	opts.Warmup = 4
	opts.ProfileDir = profDir
	opts.ProfileWindow = 50 * time.Millisecond
	opts.ProfileMinGap = time.Millisecond
	h := history.New(opts)
	sc.m.EnableHistory(h)

	// Monitor leg: /history + /anomalies served from the plane, anomaly
	// flight dumps into their own budget — the cmd/nektarg wiring shape.
	mon := monitor.New(reg, monitor.Options{FlightDir: t.TempDir()})
	mon.SetHistorySource(h)
	mon.AddStatSource(h.Stats)
	flight := mon.Flight()
	h.OnAnomaly(func(a history.Anomaly) {
		flight.DumpAnomaly("perf-anomaly " + a.Kind.String() + ": " + a.Series) //nolint:errcheck // best-effort
	})

	// Journal leg: anomalies recorded as they fire, like fleetWire.bindHistory.
	jpath := filepath.Join(t.TempDir(), "journal.nkj")
	j, err := fleet.OpenJournal(jpath, 0, "inproc")
	if err != nil {
		t.Fatal(err)
	}
	h.OnAnomaly(func(a history.Anomaly) {
		j.Record(fleet.EventPerfAnomaly, map[string]any{
			"kind": a.Kind.String(), "series": a.Series, "step": a.Step,
			"value": a.Value, "baseline": a.Baseline, "z": a.Z, "profile": a.ProfilePath,
		})
	})

	// Warm the baselines on the unperturbed solver, then measure what
	// "normal" means and slow every subsequent exchange far past it.
	sc.advance(t, 8)
	doc := h.Doc("step.seconds", 0, 0)
	if len(doc.Series) != 1 || doc.Series[0].Samples != 8 {
		t.Fatalf("step.seconds after warm-up = %+v, want 8 samples", doc.Series)
	}
	slow := time.Duration(20 * doc.Series[0].Mean * float64(time.Second))
	if slow < 50*time.Millisecond {
		slow = 50 * time.Millisecond
	}
	// From now on every exchange is slow by that much, spread over its DPD
	// steps.
	sys := sc.m.Atomistic[0].Sys
	sys.Bonded = append(sys.Bonded, sleepyBond(slow/time.Duration(sc.m.NSStepsPerExchange*sc.m.DPDStepsPerNS)))
	sc.advance(t, 6)

	anoms := h.Anomalies()
	var stepAnoms []history.Anomaly
	for _, a := range anoms {
		if a.Kind == history.KindStepTime {
			stepAnoms = append(stepAnoms, a)
		}
	}
	// Exactly one step-time anomaly. Other kinds are not this test's
	// business: on a host with hypervisor steal a stage's cross-patch
	// imbalance can legitimately drift during the six slowed exchanges.
	if len(stepAnoms) != 1 {
		t.Fatalf("slowdown fired %d step-time anomalies (%d of all kinds), want exactly 1:\n%+v",
			len(stepAnoms), h.AnomalyTotal(), anoms)
	}
	a := stepAnoms[0]
	if a.Series != "step.seconds" || a.Value <= a.Baseline || a.Z <= 4 || a.Sustained != 3 {
		t.Fatalf("anomaly shape = %+v, want step.seconds excursion with z > 4 sustained 3", a)
	}
	// The streak started on the first slowed exchange (9) and completed on
	// the third (11).
	if a.Step != 11 {
		t.Fatalf("anomaly fired at exchange %d, want 11", a.Step)
	}

	// Profile: auto-captured, rate-limited, completed in the background.
	if a.ProfilePath == "" || !strings.HasPrefix(a.ProfilePath, profDir) {
		t.Fatalf("anomaly profile path = %q, want a capture under %s", a.ProfilePath, profDir)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(h.ProfilePaths()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("pprof capture never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Flight recorder: one dump per anomaly on the anomaly budget, the
	// shared watchdog/panic budget untouched.
	total := h.AnomalyTotal()
	if n := len(flight.AnomalyDumps()); int64(n) != total {
		t.Fatalf("anomaly flight dumps = %d, want %d", n, total)
	}
	if n := len(flight.Dumps()); n != 0 {
		t.Fatalf("shared flight budget drawn down by anomaly dump: %d dumps", n)
	}

	// HTTP surface: /anomalies and /history from the live monitor.
	srv, err := mon.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck // test cleanup
	body := httpGet(t, srv.URL()+"/anomalies")
	for _, want := range []string{fmt.Sprintf(`"total": %d`, total), `"step-time"`, `"series": "step.seconds"`} {
		if !strings.Contains(body, want) {
			t.Errorf("GET /anomalies missing %q:\n%s", want, body)
		}
	}
	hist := httpGet(t, srv.URL()+"/history?series=step.&max=4")
	var served history.Doc
	if err := json.Unmarshal([]byte(hist), &served); err != nil {
		t.Fatalf("GET /history body: %v", err)
	}
	if len(served.Series) != 1 || served.Series[0].Name != "step.seconds" || len(served.Series[0].Points) != 4 {
		t.Fatalf("GET /history?series=step.&max=4 served %+v, want 4 newest step.seconds points", served.Series)
	}
	metrics := httpGet(t, srv.URL()+"/metrics")
	for _, want := range []string{"history_samples_total 14", `history_anomalies_total{kind="step-time"} 1`, "go_heap_alloc_bytes"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("GET /metrics missing %q", want)
		}
	}

	// Fleet rollup: a compact history document rides ProcessStatus into
	// /cluster/history, keyed by process.
	compact, err := h.HistoryJSON("", -1, 64)
	if err != nil {
		t.Fatal(err)
	}
	agg := fleet.NewAggregator()
	agg.Report(fleet.ProcessStatus{Proc: "rank0", Ranks: []int{0}, Transport: "inproc", History: compact})
	agg.Report(fleet.ProcessStatus{Proc: "rank1", Ranks: []int{1}, Transport: "inproc"})
	fsrv, err := agg.Serve("127.0.0.1:0", "nektarg", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fsrv.Close() //nolint:errcheck // test cleanup
	var cluster map[string]history.Doc
	if err := json.Unmarshal([]byte(httpGet(t, fsrv.URL()+"/cluster/history")), &cluster); err != nil {
		t.Fatalf("GET /cluster/history: %v", err)
	}
	if len(cluster) != 1 || cluster["rank0"].AnomalyTotal != total {
		t.Fatalf("/cluster/history = %+v, want rank0 only, with its anomaly", cluster)
	}

	// Journal: the perf-anomaly record with the profile path.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := fleet.ReadJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range recs {
		if k, _ := e.Fields["kind"].(string); e.Type == fleet.EventPerfAnomaly && k == "step-time" {
			found = true
			if p, _ := e.Fields["profile"].(string); p != a.ProfilePath {
				t.Errorf("journal profile = %v, want %s", e.Fields["profile"], a.ProfilePath)
			}
		}
	}
	if !found {
		t.Fatalf("no step-time %s event in journal: %+v", fleet.EventPerfAnomaly, recs)
	}
}

// TestHistorySamplingOverhead pins the <1%-of-step-time sampling budget: the
// time inside SampleExchange (runtime series included) must stay under 1% of
// an exchange's wall time at stride 1, at the paper's exchange ratios (the
// sample is a fixed ~0.1 ms, mostly the ReadMemStats handshake; the other
// tests' 12-DPD-step toy exchange is a few ms and says nothing about the
// budget). Both sides are the least-disturbed exchange of the run: on a
// shared host one descheduled slice inside the handshake outweighs every
// other sample put together, so a cumulative budget measures the hypervisor.
func TestHistorySamplingOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation dilates the sampling cost")
	}
	sc := buildRestartScenario(t)
	sc.m.Atomistic[0].Sys.FillRandom(400, 0)
	sc.m.NSStepsPerExchange, sc.m.DPDStepsPerNS = 10, 20
	opts := historyTestOptions()
	opts.NoRuntime = false // the ReadMemStats handshake is part of the budget
	h := wireHistory(sc, opts)
	// At least minExchanges; a run caught in a noisy stretch keeps going
	// until one sample and one exchange got through undisturbed.
	const minExchanges, maxExchanges = 12, 48
	var costs, walls []time.Duration
	within := func() bool { return slices.Min(costs)*100 <= slices.Min(walls) }
	for i := 0; i < minExchanges || i < maxExchanges && !within(); i++ {
		c0, t0 := h.SampleCost(), time.Now()
		sc.advance(t, 1)
		walls = append(walls, time.Since(t0))
		costs = append(costs, h.SampleCost()-c0)
	}
	if h.Samples() != int64(len(costs)) {
		t.Fatalf("samples = %d, want %d (stride 1)", h.Samples(), len(costs))
	}
	cost, wall := slices.Min(costs), slices.Min(walls)
	if cost <= 0 || !within() {
		t.Fatalf("sampling cost %v is %.2f%% of an exchange's %v wall, budget is 1%%\ncosts %v\nwalls %v",
			cost, 100*float64(cost)/float64(wall), wall, costs, walls)
	}
	t.Logf("sampling cost %v, exchange %v: %.2f%% (%d exchanges)", cost, wall, 100*float64(cost)/float64(wall), len(costs))
}

// TestHistoryStrideSampling: with a stride only every Nth exchange is
// sampled — the resolution/horizon trade for very long runs.
func TestHistoryStrideSampling(t *testing.T) {
	sc := buildRestartScenario(t)
	opts := historyTestOptions()
	opts.Stride = 3
	h := wireHistory(sc, opts)
	sc.advance(t, 7)
	if h.Samples() != 2 { // exchanges 3 and 6
		t.Fatalf("samples = %d over 7 exchanges at stride 3, want 2", h.Samples())
	}
}

// TestHistoryDisabledZeroCost pins the disabled path at zero allocations:
// a metasolver without EnableHistory and a nil plane must cost nothing —
// the same nil-is-disabled contract as telemetry, monitor, audit and
// in-situ. verify.sh gates on this test by name.
func TestHistoryDisabledZeroCost(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	m := &Metasolver{}
	if a := testing.AllocsPerRun(1000, func() { m.sampleHistory(time.Millisecond) }); a != 0 {
		t.Fatalf("disabled sampleHistory allocates %.1f/op, want 0", a)
	}
	var p *history.Plane
	if a := testing.AllocsPerRun(1000, func() {
		if p.Due(7) {
			p.SampleExchange(7, 0.1, nil)
		}
		p.Observe("x", 1, 1)
		p.ObserveCum("x", 1, 1)
		if p.Stats() != nil || p.Anomalies() != nil {
			t.Fatal("nil plane returned data")
		}
	}); a != 0 {
		t.Fatalf("nil plane methods allocate %.1f/op, want 0", a)
	}
}

// TestHistoryResumeContinuity: N exchanges, checkpoint, restore onto fresh
// wiring — the restored plane must carry the exact series rings, summaries
// and baselines of the interrupted run (format v4), and keep accumulating
// from there instead of re-learning "normal" from post-restart samples.
func TestHistoryResumeContinuity(t *testing.T) {
	const n, m = 5, 3
	sc := buildRestartScenario(t)
	h := wireHistory(sc, historyTestOptions())
	sc.advance(t, n)

	bundle := sc.m.CaptureCheckpoint(sc.networks)
	if bundle.History == nil {
		t.Fatal("checkpoint bundle carries no history state")
	}
	var buf bytes.Buffer
	if err := checkpoint.Save(&buf, bundle); err != nil {
		t.Fatal(err)
	}
	loaded, err := checkpoint.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	resumed := buildRestartScenario(t)
	h2 := wireHistory(resumed, historyTestOptions())
	if err := resumed.m.RestoreCheckpoint(loaded, resumed.networks); err != nil {
		t.Fatal(err)
	}
	if got, want := h2.CaptureState(), h.CaptureState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored history state diverged:\ngot  %+v\nwant %+v", got, want)
	}
	if h2.Samples() != n {
		t.Fatalf("restored samples = %d, want %d", h2.Samples(), n)
	}

	// The resumed run accumulates on top of the restored rings.
	resumed.advance(t, m)
	doc := h2.Doc("step.seconds", 0, 0)
	if len(doc.Series) != 1 || doc.Series[0].Samples != n+m {
		t.Fatalf("resumed step.seconds = %+v, want %d samples", doc.Series, n+m)
	}
	if h2.Samples() != n+m || doc.Step != n+m {
		t.Fatalf("resumed samples=%d step=%d, want %d", h2.Samples(), doc.Step, n+m)
	}
}
