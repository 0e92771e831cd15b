package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nektarg/internal/monitor"
)

// publishAndScrape POSTs body to a fresh aggregator's /cluster/publish and
// returns the publish status code and the cluster exposition after. Whatever
// publish let in must render: a writer error here means the two disagree on
// what is valid.
func publishAndScrape(t *testing.T, body []byte) (int, string) {
	t.Helper()
	a := NewAggregator()
	pub := httptest.NewRecorder()
	a.Handler("nektarg", nil).ServeHTTP(pub, httptest.NewRequest(http.MethodPost, "/cluster/publish", bytes.NewReader(body)))
	var out bytes.Buffer
	if err := WriteClusterMetrics(&out, "nektarg", a.Verdict(), a.Statuses()); err != nil {
		t.Fatalf("publish answered %d but the exposition fails: %v", pub.Code, err)
	}
	return pub.Code, out.String()
}

// TestPublishRejectsHostileStats: a ProcessStatus arrives over HTTP from
// another process, and its stat names, types and label names are printed
// into /cluster/metrics as written — so a status carrying one that is not a
// legal exposition token is refused with 400 and never reaches a scrape,
// while free text (HELP, label values, proc) is accepted and escaped.
func TestPublishRejectsHostileStats(t *testing.T) {
	const injected = "injected_total 1"
	for _, tc := range []struct {
		name string
		stat monitor.Stat
		code int
	}{
		{"newline in name", monitor.Stat{Name: "x 0\n" + injected, Type: "gauge"}, 400},
		{"brace in name", monitor.Stat{Name: `x{a="b"}`, Type: "gauge"}, 400},
		{"empty name", monitor.Stat{Type: "gauge"}, 400},
		{"unknown type", monitor.Stat{Name: "x", Type: "histogram"}, 400},
		{"newline in type", monitor.Stat{Name: "x", Type: "gauge\n" + injected}, 400},
		{"quote in label name", monitor.Stat{Name: "x", Type: "gauge", Labels: [][2]string{{`a="1",b`, "v"}}}, 400},
		{"newline in help", monitor.Stat{Name: "x", Type: "gauge", Help: "h\\\n" + injected}, 204},
		{"newline in label value", monitor.Stat{Name: "x", Type: "gauge", Labels: [][2]string{{"peer", "1\"} 7\n" + injected}}}, 204},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := healthyStatus("rank\"0\n"+injected, 0)
			st.Stats = append(st.Stats, tc.stat)
			body, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			code, out := publishAndScrape(t, body)
			if code != tc.code {
				t.Errorf("publish answered %d, want %d", code, tc.code)
			}
			if _, err := monitor.LintExposition(out); err != nil {
				t.Errorf("exposition fails the HELP/TYPE lint: %v\n%s", err, out)
			}
			for _, line := range strings.Split(out, "\n") {
				if strings.HasPrefix(line, injected) {
					t.Errorf("hostile status injected a line into the exposition:\n%s", out)
				}
			}
			if tc.code == 204 && !strings.Contains(out, "nektarg_x{proc=") {
				t.Errorf("accepted stat is missing from the exposition:\n%s", out)
			}
		})
	}

	// In process (Report, no HTTP) the writer is the last line: it refuses
	// the family instead of printing it.
	a := NewAggregator()
	st := healthyStatus("rank0", 0)
	st.Stats = []monitor.Stat{{Name: "x\n" + injected}}
	a.Report(st)
	var buf bytes.Buffer
	if err := WriteClusterMetrics(&buf, "nektarg", a.Verdict(), a.Statuses()); err == nil || strings.Contains(buf.String(), injected) {
		t.Errorf("writer printed an invalid family (err = %v):\n%s", err, buf.String())
	}
}

// FuzzPublishStatus feeds arbitrary bytes to /cluster/publish: whatever the
// aggregator accepts renders without a writer error, and the exposition
// passes the HELP/TYPE lint.
func FuzzPublishStatus(f *testing.F) {
	// The hostile seeds live in testdata/fuzz/FuzzPublishStatus.
	ok, _ := json.Marshal(auditedStatus("rank1", 1))
	f.Add(ok)
	f.Fuzz(func(t *testing.T, body []byte) {
		_, out := publishAndScrape(t, body)
		if _, err := monitor.LintExposition(out); err != nil {
			t.Fatalf("exposition fails the HELP/TYPE lint: %v\n%s", err, out)
		}
	})
}
