package fleet

// Fleet-side tests for the performance-history rollup: the publisher embeds
// each process's compact history document into its status, and the
// aggregator serves the per-process documents on /cluster/history, omitting
// processes that run without a history plane.

import (
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"testing"

	"nektarg/internal/history"
	"nektarg/internal/monitor"
	"nektarg/internal/telemetry"
)

func TestClusterHistoryRollup(t *testing.T) {
	a := NewAggregator()
	srv, err := a.Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck // test cleanup

	// rank0 publishes with a history plane that sampled 44 exchanges; rank1
	// without one.
	hist := history.New(history.Options{})
	rec := telemetry.NewRegistry().NewRecorder("rank0")
	for step := int64(1); step <= 44; step++ {
		rec.Gauge("particles", 400)
		hist.SampleExchange(step, 0.01, []*telemetry.Recorder{rec})
	}
	mk := func(name string, hist *history.Plane) *Publisher {
		reg := telemetry.NewRegistry()
		reg.NewRecorder(name).Gauge("particles", 400)
		return NewPublisher(srv.URL(), monitor.New(reg, monitor.Options{}), hist, name, []int{0}, "inproc", nil)
	}
	if err := mk("rank0", hist).PublishNow(); err != nil {
		t.Fatal(err)
	}
	if err := mk("rank1", nil).PublishNow(); err != nil {
		t.Fatal(err)
	}
	doc, err := hist.HistoryJSON("", -1, 64)
	if err != nil {
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
	var got, want history.Doc
	if len(have) != 1 || json.Unmarshal(have["rank0"], &got) != nil || json.Unmarshal(doc, &want) != nil ||
		!reflect.DeepEqual(got, want) {
		t.Fatalf("aggregated history = %s, want rank0 only with its plane's compact document", have)
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
	if len(cluster) != 1 || cluster["rank0"].Step != 44 || cluster["rank0"].AnomalyTotal != hist.AnomalyTotal() {
		t.Fatalf("/cluster/history = %+v, want rank0's doc only", cluster)
	}
}
