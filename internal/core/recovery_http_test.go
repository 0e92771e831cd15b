package core

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"nektarg/internal/checkpoint"
	"nektarg/internal/monitor"
	"nektarg/internal/telemetry"
)

// TestHealthzRecoversAfterRestore drives the full PR-4 + PR-5 loop through
// the live HTTP surface: a watchdog trip mid-run flips /healthz to 503, the
// recovery loop dumps the black box, restores the last good checkpoint and
// re-arms health, and /healthz returns 200 for the rest of the run — while
// the Prometheus trip counter stays monotonic.
func TestHealthzRecoversAfterRestore(t *testing.T) {
	sc := buildRestartScenario(t)
	reg := telemetry.NewRegistry()
	reg.NewRecorder("rank0").RecordSpan("meta.exchange", 0, time.Millisecond, 0, 0)
	mon := monitor.New(reg, monitor.Options{FlightDir: t.TempDir()})
	srv, err := mon.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, []byte) {
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz before run = %d, want 200", code)
	}

	ck := &Checkpointer{
		Meta:  sc.m,
		Store: &checkpoint.Store{Dir: t.TempDir()},
		Every: 1,
	}
	const exchanges = 4
	tripped := false
	var codeDuringTrip int
	err = RunWithRecovery(ck, exchanges, RecoveryOptions{
		Health: mon.Health(),
		Flight: mon.Flight(),
		OnExchange: func(ex int) error {
			if ex == 2 && !tripped {
				tripped = true
				// A watchdog fires mid-exchange (the particle-drift guard
				// shape: a critical event with no error return path).
				mon.Health().Record("drift-guard", "rank0", monitor.SevCritical,
					"injected mid-run trip", 1)
				codeDuringTrip, _ = get("/healthz")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tripped {
		t.Fatal("injected trip never fired")
	}
	if codeDuringTrip != http.StatusServiceUnavailable {
		t.Fatalf("/healthz during trip = %d, want 503", codeDuringTrip)
	}
	if sc.m.Exchanges != exchanges {
		t.Fatalf("run finished at exchange %d, want %d", sc.m.Exchanges, exchanges)
	}

	// The recovery loop restored and re-armed: back to 200, trip history
	// preserved, exactly one re-arm on record.
	code, body := get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz after recovery = %d, want 200\n%s", code, body)
	}
	var v monitor.Verdict
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if !v.Healthy || v.Trips != 1 || v.Cleared != 1 || v.Rearms != 1 {
		t.Fatalf("post-recovery verdict = %+v", v)
	}

	// The black box fired twice: once auto-triggered by the critical trip,
	// once by the recovery loop before the restore, both within the
	// monitor.DefaultFlightLimit cap.
	if dumps := mon.Flight().Dumps(); len(dumps) != 2 {
		t.Fatalf("flight dumps after recovery = %v, want exactly 2", dumps)
	}
}
