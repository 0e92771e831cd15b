package core

// Cluster observability acceptance: the same two-OS-process kill -9 drama as
// TestDistributedRecoverySurvivesProcessKill, but this time the point is what
// the observability plane records while it happens. Rank 0 hosts the fleet
// aggregator; both ranks journal their lineage, publish status, and write
// per-incarnation traces. The parent process plays the external operator: it
// scrapes /cluster/healthz through the outage (503, latched) and after the
// recovery (200), checks /events is byte-stable, reconstructs the full
// lineage from the on-disk journals, and stitches all four per-incarnation
// traces into one causally consistent timeline.

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"nektarg/internal/checkpoint"
	"nektarg/internal/fleet"
	"nektarg/internal/monitor"
	"nektarg/internal/mpi"
	"nektarg/internal/mpi/tcptransport"
	"nektarg/internal/telemetry"
)

const (
	fleetRankEnv    = "NEKTARG_FLEET_CHILD_RANK"
	fleetPeersEnv   = "NEKTARG_FLEET_PEERS"
	fleetCkEnv      = "NEKTARG_FLEET_CKDIR"
	fleetExchEnv    = "NEKTARG_FLEET_EXCHANGES"
	fleetAddrEnv    = "NEKTARG_FLEET_ADDR"    // rank 0 only: aggregator listen address
	fleetPubEnv     = "NEKTARG_FLEET_PUBLISH" // both ranks: aggregator base URL
	fleetJournalEnv = "NEKTARG_FLEET_JOURNAL" // per-rank journal directory
	fleetTraceEnv   = "NEKTARG_FLEET_TRACES"  // shared trace directory
	fleetReleaseEnv = "NEKTARG_FLEET_RELEASE" // rank 0 only: exit once this file exists
)

// TestFleetWorldChild is one OS process of the observed world, re-executed
// from the test binary by TestClusterObservabilitySurvivesProcessKill.
func TestFleetWorldChild(t *testing.T) {
	rankStr := os.Getenv(fleetRankEnv)
	if rankStr == "" {
		t.Skip("re-exec helper; driven by TestClusterObservabilitySurvivesProcessKill")
	}
	rank, err := strconv.Atoi(rankStr)
	if err != nil {
		t.Fatal(err)
	}
	peers := strings.Split(os.Getenv(fleetPeersEnv), ",")
	exchanges, err := strconv.Atoi(os.Getenv(fleetExchEnv))
	if err != nil {
		t.Fatal(err)
	}

	j, err := fleet.OpenJournal(filepath.Join(os.Getenv(fleetJournalEnv), "journal.nkj"), rank, "tcp")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	reg := telemetry.NewRegistry()
	rec := reg.NewRecorder("solver")
	mon := monitor.New(reg, monitor.Options{})
	tcpStats := &fleet.TCPStats{}
	mon.AddStatSource(tcpStats.Source())

	flight := monitor.NewFlightRecorder(t.TempDir(), reg.Recorders, mon.Health())
	flight.OnDump(func(path, reason string) {
		j.Record(fleet.EventFlightDump, map[string]any{"path": path, "reason": reason})
	})

	if addr := os.Getenv(fleetAddrEnv); addr != "" {
		agg := fleet.NewAggregator()
		agg.ObserveJournal(j)
		srv, err := agg.Serve(addr, "nektarg", j)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
	}
	var pub *fleet.Publisher
	if url := os.Getenv(fleetPubEnv); url != "" {
		pub = fleet.NewPublisher(url, mon, fmt.Sprintf("rank%d", rank), []int{rank}, "tcp", j)
	}
	traces := fleet.NewTraceWriter(os.Getenv(fleetTraceEnv), "trace", rank, "tcp", reg.Recorders, j)

	sc := buildRestartScenario(t)
	ck := &Checkpointer{
		Meta:     sc.m,
		Networks: sc.networks,
		Store:    &checkpoint.Store{Dir: os.Getenv(fleetCkEnv), Keep: 4},
		Every:    1,
		Journal:  j,
	}
	err = RunDistributed(ck, exchanges, DistributedOptions{
		Dial: tcpStats.Wrap(func() (*tcptransport.Transport, error) {
			return tcptransport.New(rank, peers, tcptransport.Options{RendezvousTimeout: 30 * time.Second})
		}),
		MaxRestarts: 5,
		Backoff:     100 * time.Millisecond,
		Flight:      flight,
		Health:      mon.Health(),
		Journal:     j,
		OnExchange: func(world *mpi.Comm, e int) error {
			// Bind the recorder to this incarnation's hop clock before the
			// span, so the merged trace carries real causal edges.
			world.AttachTelemetry(rec)
			rec.Begin("exchange").End()
			pub.OnExchange(e)
			return traces.WriteNow()
		},
		Log: slog.New(slog.NewTextHandler(os.Stderr, nil)),
	})
	if err != nil {
		t.Fatalf("rank %d: distributed run failed: %v", rank, err)
	}

	// Rank 0 keeps the aggregator serving until the parent has finished its
	// post-recovery scrapes, signalled through the release file.
	if release := os.Getenv(fleetReleaseEnv); release != "" {
		deadline := time.Now().Add(60 * time.Second)
		for {
			if _, err := os.Stat(release); err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("parent never released the aggregator")
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
}

func TestClusterObservabilitySurvivesProcessKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	const exchanges = 5

	peers := []string{freeAddr(t), freeAddr(t)}
	fleetAddr := freeAddr(t)
	fleetURL := "http://" + fleetAddr
	base := t.TempDir()
	ckDirs := []string{filepath.Join(base, "ck0"), filepath.Join(base, "ck1")}
	jDirs := []string{filepath.Join(base, "j0"), filepath.Join(base, "j1")}
	traceDir := filepath.Join(base, "traces")
	release := filepath.Join(base, "release")
	for _, d := range append(append([]string{traceDir}, ckDirs...), jDirs...) {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}

	outputs := map[string]*bytes.Buffer{}
	launch := func(rank int, tag string) *exec.Cmd {
		cmd := exec.Command(os.Args[0], "-test.run", "^TestFleetWorldChild$", "-test.v")
		cmd.Env = append(os.Environ(),
			fmt.Sprintf("%s=%d", fleetRankEnv, rank),
			fmt.Sprintf("%s=%s", fleetPeersEnv, strings.Join(peers, ",")),
			fmt.Sprintf("%s=%s", fleetCkEnv, ckDirs[rank]),
			fmt.Sprintf("%s=%d", fleetExchEnv, exchanges),
			fmt.Sprintf("%s=%s", fleetPubEnv, fleetURL),
			fmt.Sprintf("%s=%s", fleetJournalEnv, jDirs[rank]),
			fmt.Sprintf("%s=%s", fleetTraceEnv, traceDir),
		)
		if rank == 0 {
			cmd.Env = append(cmd.Env,
				fmt.Sprintf("%s=%s", fleetAddrEnv, fleetAddr),
				fmt.Sprintf("%s=%s", fleetReleaseEnv, release),
			)
		}
		buf := &bytes.Buffer{}
		outputs[tag] = buf
		cmd.Stdout = buf
		cmd.Stderr = buf
		if err := cmd.Start(); err != nil {
			t.Fatalf("launching %s: %v", tag, err)
		}
		return cmd
	}
	dumpOutputs := func() {
		for tag, buf := range outputs {
			t.Logf("--- %s output ---\n%s", tag, buf.String())
		}
	}
	get := func(path string) (int, string, error) {
		resp, err := http.Get(fleetURL + path)
		if err != nil {
			return 0, "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return 0, "", err
		}
		return resp.StatusCode, string(body), nil
	}

	c0 := launch(0, "rank0")
	c1 := launch(1, "rank1-first")

	// Kill -9 the rank-1 process once it has committed exchange 2.
	target := filepath.Join(ckDirs[1], "checkpoint-00000002.ckpt")
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := os.Stat(target); err == nil {
			break
		}
		if time.Now().After(deadline) {
			c0.Process.Kill()
			c1.Process.Kill()
			dumpOutputs()
			t.Fatal("world never reached checkpoint 2")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	c1.Wait()
	ws, ok := c1.ProcessState.Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		dumpOutputs()
		t.Fatalf("rank 1 did not die by SIGKILL: %v", c1.ProcessState)
	}

	// The aggregator must latch: rank 0 journals the world loss, healthz goes
	// 503 and names the cause. Poll — the survivor needs a moment to notice
	// the dead stream.
	deadline = time.Now().Add(30 * time.Second)
	for {
		code, body, err := get("/cluster/healthz")
		if err == nil && code == http.StatusServiceUnavailable && strings.Contains(body, "world-lost") {
			break
		}
		if time.Now().After(deadline) {
			c0.Process.Kill()
			dumpOutputs()
			t.Fatalf("healthz never latched: code=%d err=%v", code, err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Relaunch the dead rank; once the world resumes, the journaled recovery
	// re-arms the aggregator and healthz returns to 200.
	c1b := launch(1, "rank1-relaunched")
	deadline = time.Now().Add(2 * time.Minute)
	for {
		code, _, err := get("/cluster/healthz")
		if err == nil && code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			c0.Process.Kill()
			c1b.Process.Kill()
			dumpOutputs()
			t.Fatalf("healthz never recovered: code=%d err=%v", code, err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// /events serves the durable lineage and is byte-stable across reads.
	code, ev1, err := get("/events")
	if err != nil || code != http.StatusOK {
		t.Fatalf("/events: %d %v", code, err)
	}
	_, ev2, err := get("/events")
	if err != nil || ev1 != ev2 {
		t.Fatalf("/events not byte-stable (err=%v)", err)
	}
	for _, want := range []string{"incarnation-start", "world-lost", "resume-agreement", "recovered"} {
		if !strings.Contains(ev1, want) {
			t.Fatalf("/events missing %q:\n%s", want, ev1)
		}
	}

	// Fleet metrics carry both processes, tagged with rank set and transport;
	// poll until the post-recovery publishes (incarnation 2) have landed.
	deadline = time.Now().Add(30 * time.Second)
	for {
		code, body, err := get("/cluster/metrics")
		if err == nil && code == 200 &&
			strings.Contains(body, "nektarg_cluster_processes 2") &&
			strings.Contains(body, `nektarg_process_info{incarnation="2",proc="rank1",ranks="1",transport="tcp"} 1`) {
			break
		}
		if time.Now().After(deadline) {
			c0.Process.Kill()
			c1b.Process.Kill()
			dumpOutputs()
			t.Fatalf("cluster metrics never carried the recovered fleet: %d %v\n%s", code, err, body)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Release rank 0 and let both children finish.
	if err := os.WriteFile(release, []byte("done\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := waitProc(c0, 2*time.Minute); err != nil {
		dumpOutputs()
		t.Fatalf("rank 0: %v", err)
	}
	if err := waitProc(c1b, 2*time.Minute); err != nil {
		dumpOutputs()
		t.Fatalf("relaunched rank 1: %v", err)
	}

	// Rank 0's journal reproduces the full lineage in order: first
	// incarnation, the loss, the new incarnation, the resume agreement, the
	// recovery, and the completed run. (Extra incarnations from dial-timing
	// retries are tolerated: we assert the subsequence.)
	assertSubsequence(t, journalTypes(t, jDirs[0]), []string{
		fleet.EventIncarnationStart, fleet.EventCheckpoint, fleet.EventWorldLost,
		fleet.EventFlightDump, fleet.EventIncarnationStart, fleet.EventResumeAgreement,
		fleet.EventRecovered, fleet.EventRunComplete,
	})

	// Rank 1's single journal file spans the kill: incarnation 1's records
	// survive, the relaunched process resumes the lineage as incarnation 2,
	// and two decodes agree exactly.
	j1Path := filepath.Join(jDirs[1], "journal.nkj")
	events, err := fleet.ReadJournal(j1Path)
	if err != nil {
		t.Fatal(err)
	}
	again, err := fleet.ReadJournal(j1Path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, again) {
		t.Fatal("rank 1 journal decodes differ between reads")
	}
	incs := map[int]bool{}
	for _, e := range events {
		if e.Type == fleet.EventIncarnationStart {
			incs[e.Incarnation] = true
		}
	}
	if !incs[1] || !incs[2] {
		t.Fatalf("rank 1 journal incarnations = %v, want 1 and 2", incs)
	}
	assertSubsequence(t, journalTypes(t, jDirs[1]), []string{
		fleet.EventIncarnationStart, fleet.EventCheckpoint,
		fleet.EventIncarnationStart, fleet.EventResumeAgreement,
		fleet.EventRecovered, fleet.EventRunComplete,
	})

	// Stitch every per-incarnation trace into one timeline: both incarnations
	// of the killed rank must appear, and the hop-clock ordering must hold
	// (no receive placed before its matching send).
	traceFiles, err := filepath.Glob(filepath.Join(traceDir, "trace-rank*-inc*.json"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(traceFiles)
	if len(traceFiles) < 4 {
		t.Fatalf("trace files = %v, want at least 4 (two ranks x two incarnations)", traceFiles)
	}
	var merged bytes.Buffer
	rep, err := fleet.MergeTraceFiles(&merged, traceFiles)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Infeasible {
		t.Fatal("merged timeline infeasible")
	}
	if rep.Violations != 0 {
		t.Fatalf("merged timeline has %d hop-order violations", rep.Violations)
	}
	labels := strings.Join(rep.Labels, "; ")
	for _, want := range []string{"rank 1 inc 1 (tcp)", "rank 1 inc 2 (tcp)", "rank 0 inc 1 (tcp)"} {
		if !strings.Contains(labels, want) {
			t.Fatalf("merged trace labels = %q, missing %q", labels, want)
		}
	}
	if rep.Spans == 0 {
		t.Fatal("merged trace has no spans")
	}
}

// journalTypes reads the journal under dir and returns its event types in
// record order.
func journalTypes(t *testing.T, dir string) []string {
	t.Helper()
	events, err := fleet.ReadJournal(filepath.Join(dir, "journal.nkj"))
	if err != nil {
		t.Fatal(err)
	}
	types := make([]string, len(events))
	for i, e := range events {
		types[i] = e.Type
	}
	return types
}

// assertSubsequence checks want appears within got, in order, not necessarily
// contiguously.
func assertSubsequence(t *testing.T, got, want []string) {
	t.Helper()
	i := 0
	for _, g := range got {
		if i < len(want) && g == want[i] {
			i++
		}
	}
	if i != len(want) {
		t.Fatalf("lineage %v missing ordered subsequence %v (matched %d)", got, want, i)
	}
}
