package history

import (
	"bytes"
	"encoding/gob"
	"io"
	"testing"

	"nektarg/internal/monitor"
)

// FuzzHistoryApplyState: any bytes that gob-decode into a State restore a
// plane that keeps sampling and renders its exposition and history
// documents without panicking. The seed corpus holds the capture of a warmed
// plane, a truncated copy of it, and a state naming two series twice (each
// is stored once, the first occurrence). The samples after the restore land
// in the restored series SampleExchange also names.
func FuzzHistoryApplyState(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		var st State
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&st); err != nil {
			return
		}
		p := New(Options{})
		p.ApplyState(&st)
		recs := benchRecorders()
		for i := int64(1); i <= 6; i++ {
			recs[0].Gauge("cg_iterations", 1000*float64(i))
			p.SampleExchange(st.LastStep+i, float64(i), recs)
		}
		_ = monitor.WriteMetrics(io.Discard, nil, p.Stats(), monitor.NewHealth())
		for tier := 0; tier <= 3; tier++ {
			_, _ = p.HistoryJSON("", tier, 4)
		}
		_, _ = p.AnomaliesJSON()
		seen := map[string]bool{}
		for _, s := range p.Doc("", 0, 0).Series {
			if seen[s.Name] {
				t.Fatalf("series %q served twice", s.Name)
			}
			seen[s.Name] = true
		}
		p.CaptureState()
		if len(seen) > MaxSeries {
			t.Fatalf("%d series stored, over MaxSeries %d", len(seen), MaxSeries)
		}
	})
}
