package fleet

// Fleet-side tests for the performance-history rollup: the publisher embeds
// each process's compact history document into its status, and the
// aggregator serves the per-process documents on /cluster/history, omitting
// processes that run without a history plane.

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"nektarg/internal/monitor"
	"nektarg/internal/telemetry"
)

// stubHistory satisfies monitor.HistorySource with a fixed compact document.
type stubHistory struct{ doc string }

func (s stubHistory) HistoryJSON(prefix string, tier, maxPoints int) ([]byte, error) {
	return []byte(s.doc), nil
}
func (s stubHistory) AnomaliesJSON() ([]byte, error) { return []byte(`{"total":0}`), nil }

func TestClusterHistoryRollup(t *testing.T) {
	a := NewAggregator()
	srv, err := a.Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck // test cleanup

	// rank0 publishes through a monitor with a history plane wired; rank1
	// through one without.
	doc := `{"step":44,"anomaly_total":1,"series":[{"name":"step.seconds"}]}`
	mk := func(name string, hist monitor.HistorySource) *Publisher {
		reg := telemetry.NewRegistry()
		reg.NewRecorder(name).Gauge("particles", 400)
		mon := monitor.New(reg, monitor.Options{})
		if hist != nil {
			mon.SetHistorySource(hist)
		}
		return NewPublisher(srv.URL(), mon, name, []int{0}, "inproc", nil)
	}
	if err := mk("rank0", stubHistory{doc}).PublishNow(); err != nil {
		t.Fatal(err)
	}
	if err := mk("rank1", nil).PublishNow(); err != nil {
		t.Fatal(err)
	}

	// The status round-trips the raw document.
	var have map[string]json.RawMessage
	for _, st := range a.Statuses() {
		if len(st.History) > 0 {
			if have == nil {
				have = map[string]json.RawMessage{}
			}
			have[st.Proc] = st.History
		}
	}
	if len(have) != 1 || string(have["rank0"]) != doc {
		t.Fatalf("aggregated history = %v, want rank0 only with the stub doc", have)
	}

	// GET /cluster/history serves {proc: doc}, omitting history-less ranks.
	resp, err := http.Get(srv.URL() + "/cluster/history")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck // test cleanup
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /cluster/history: %d: %s", resp.StatusCode, body)
	}
	var cluster map[string]struct {
		Step         int64 `json:"step"`
		AnomalyTotal int64 `json:"anomaly_total"`
	}
	if err := json.Unmarshal(body, &cluster); err != nil {
		t.Fatalf("GET /cluster/history body: %v\n%s", err, body)
	}
	if len(cluster) != 1 || cluster["rank0"].Step != 44 || cluster["rank0"].AnomalyTotal != 1 {
		t.Fatalf("/cluster/history = %+v, want rank0's doc only", cluster)
	}
}
