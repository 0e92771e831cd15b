package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"testing"

	"nektarg/internal/monitor"
	"nektarg/internal/telemetry"
)

// TestFleetDisabledZeroCost pins the nil-is-disabled contract: every fleet
// hook a driver calls unconditionally per exchange must cost zero allocations
// when the plane is off.
func TestFleetDisabledZeroCost(t *testing.T) {
	var pub *Publisher
	var dl *DropLedger
	var j *Journal
	var tw *TraceWriter

	if n := testing.AllocsPerRun(1000, func() {
		pub.OnExchange(3)
		dl.Check()
		if err := tw.WriteNow(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("disabled per-exchange hooks allocate %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		j.Record(EventCheckpoint, nil)
	}); n != 0 {
		t.Fatalf("disabled journal Record allocates %.1f/op, want 0", n)
	}
}

func BenchmarkJournalAppend(b *testing.B) {
	j, err := OpenJournal(filepath.Join(b.TempDir(), "j.nkj"), 0, "tcp")
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	fields := map[string]any{"path": "checkpoint-00000042.ckpt", "exchange": 42}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Record(EventCheckpoint, fields)
	}
}

func BenchmarkDisabledExchangeHook(b *testing.B) {
	var pub *Publisher
	var dl *DropLedger
	var tw *TraceWriter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pub.OnExchange(i)
		dl.Check()
		tw.WriteNow() //nolint:errcheck // nil path
	}
}

func BenchmarkAggregatorReport(b *testing.B) {
	a := NewAggregator()
	sts := make([]ProcessStatus, 8)
	for i := range sts {
		sts[i] = benchStatus(fmt.Sprintf("rank%d", i), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Report(sts[i%len(sts)])
	}
}

func BenchmarkClusterVerdict(b *testing.B) {
	a := NewAggregator()
	for i := 0; i < 8; i++ {
		a.Report(benchStatus(fmt.Sprintf("rank%d", i), i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := a.Verdict(); !v.Healthy {
			b.Fatal("unexpected unhealthy verdict")
		}
	}
}

func BenchmarkClusterMetricsWrite(b *testing.B) {
	a := NewAggregator()
	for i := 0; i < 8; i++ {
		a.Report(benchStatus(fmt.Sprintf("rank%d", i), i))
	}
	v, sts := a.Verdict(), a.Statuses()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteClusterMetrics(io.Discard, v, sts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceMerge(b *testing.B) {
	var files []namedRaw
	for r := 0; r < 4; r++ {
		doc := mergeDoc{OtherData: map[string]any{
			"epoch_unix_ns": 1_000_000_000 + int64(r)*1000, "rank": r, "incarnation": 1, "transport": "tcp",
		}}
		for i := 0; i < 200; i++ {
			doc.TraceEvents = append(doc.TraceEvents, mergeEvent{
				Name: "span", Ph: "X", TS: float64(i * 100), Dur: 50, TID: 1,
				Args: map[string]any{"h0": float64(i*4 + r), "h1": float64(i*4 + r + 1)},
			})
		}
		raw, err := json.Marshal(doc)
		if err != nil {
			b.Fatal(err)
		}
		files = append(files, namedRaw{Path: fmt.Sprintf("r%d.json", r), Raw: raw})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out bytes.Buffer
		rep, err := MergeTraces(&out, files)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Spans != 800 {
			b.Fatalf("spans = %d", rep.Spans)
		}
	}
}

func benchStatus(proc string, rank int) ProcessStatus {
	s := &telemetry.Snapshot{
		Track: "solver",
		Stages: map[string]telemetry.StageStats{
			"3d:step":  {Count: 100, Total: 1.0, Min: 0.009, Max: 0.011},
			"dpd:step": {Count: 400, Total: 2.0, Min: 0.004, Max: 0.006},
		},
		Gauges: map[string]telemetry.GaugeStats{},
	}
	s.Traffic[telemetry.LevelL2][telemetry.OpP2P].Msgs = int64(100 * (rank + 1))
	s.Traffic[telemetry.LevelL2][telemetry.OpP2P].Bytes = int64(10000 * (rank + 1))
	return ProcessStatus{
		Proc: proc, Ranks: []int{rank}, Incarnation: 1, Transport: "tcp",
		Snapshots: []*telemetry.Snapshot{s},
		Verdict:   monitor.Verdict{Healthy: true},
		Stats: []monitor.Stat{
			{Name: "transport_frames_sent_total", Type: "counter", Labels: [][2]string{{"peer", "1"}}, Value: 123},
		},
	}
}
