package telemetry

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestChromeTraceGolden pins WriteChromeTraceTagged's output, wall-clock
// stamp aside, against the bytes the slice-backed span ring wrote for the
// same three tracks: a short one with hop data, one wrapped past
// DefaultSpanCap (pinned by the SHA-256 of its span events, which are too
// many to keep verbatim) and one refilled after ResetSpans.
func TestChromeTraceGolden(t *testing.T) {
	reg := &Registry{epoch: time.Unix(1_700_000_000, 123_456_789)}
	short := reg.NewRecorder("patch:A")
	wrapped := reg.NewRecorder("dpd:fundus")
	reset := reg.NewRecorder("1d:tree")

	us := time.Microsecond
	short.RecordSpan("ns.step", 0, 1_234_567*time.Nanosecond, 0, 3)
	short.RecordSpan("meta.wait", 1300*us, 33*us, 3, 3)
	short.RecordSpan("meta.exchange", 1400*us, 7*us, 3, 11)
	short.RecordSpan("ns.step", 1500*us, 999_999*time.Nanosecond, 11, 14)
	short.RecordSpan("insitu", 2600*us, 5*us, 0, 0)
	short.RecordSpan("mpi.allreduce", 2700*us, 9*us, 1<<40, 1<<40+7)

	names := []string{"dpd.step", "dpd.forces", "meta.exchange"}
	for i := 0; i < DefaultSpanCap+100; i++ {
		h0 := i / 3
		wrapped.RecordSpan(names[i%len(names)], time.Duration(i)*7*us, time.Duration(1000+i%997)*time.Nanosecond, h0, h0+i%4)
	}

	for i := 0; i < 50; i++ {
		reset.RecordSpan("1d.step", time.Duration(i)*us, us, i, i+1)
	}
	reset.ResetSpans()
	reset.RecordSpan("1d.step", 90*us, 2*us, 0, 1)
	reset.RecordSpan("1d.exchange", 93*us, 3*us, 1, 1)

	var buf bytes.Buffer
	if err := WriteChromeTraceTagged(&buf, reg.Recorders(), &TraceMeta{Rank: 3, Incarnation: 2, Transport: "tcp"}); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents     []json.RawMessage          `json:"traceEvents"`
		DisplayTimeUnit string                     `json:"displayTimeUnit"`
		OtherData       map[string]json.RawMessage `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	delete(tf.OtherData, "written")
	type wrappedDigest struct {
		Track  string `json:"track"`
		Events int    `json:"events"`
		SHA256 string `json:"sha256"`
	}
	doc := struct {
		DisplayTimeUnit string                     `json:"displayTimeUnit"`
		OtherData       map[string]json.RawMessage `json:"otherData"`
		TraceEvents     []json.RawMessage          `json:"traceEvents"`
		Wrapped         wrappedDigest              `json:"wrapped"`
	}{DisplayTimeUnit: tf.DisplayTimeUnit, OtherData: tf.OtherData, Wrapped: wrappedDigest{Track: wrapped.Track()}}
	h := sha256.New()
	for _, raw := range tf.TraceEvents {
		var ev struct {
			Ph  string `json:"ph"`
			TID int    `json:"tid"`
		}
		if err := json.Unmarshal(raw, &ev); err != nil {
			t.Fatal(err)
		}
		if ev.TID == wrapped.tid && ev.Ph == "X" {
			h.Write(raw)
			h.Write([]byte{'\n'})
			doc.Wrapped.Events++
			continue
		}
		doc.TraceEvents = append(doc.TraceEvents, raw)
	}
	doc.Wrapped.SHA256 = hex.EncodeToString(h.Sum(nil))
	got, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	want, err := os.ReadFile(filepath.Join("testdata", "chrome_trace.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Chrome trace drifted from the recorded bytes.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
