package history

import (
	"bytes"
	"encoding/gob"
	"io"
	"testing"

	"nektarg/internal/monitor"
)

// FuzzHistoryApplyState: any bytes that gob-decode into a State restore a
// plane that keeps observing its series and renders its exposition and
// history documents without panicking. The seed corpus holds the capture of
// a warmed plane and a truncated copy of it.
func FuzzHistoryApplyState(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		var st State
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&st); err != nil {
			return
		}
		p := New(testOptions())
		p.ApplyState(&st)
		for i := int64(1); i <= 6; i++ {
			for _, ss := range st.Series {
				p.Observe(ss.Name, st.LastStep+i, 1000*float64(i))
				p.ObserveCum(ss.Name+".cum", st.LastStep+i, float64(i))
			}
		}
		_ = monitor.WriteMetrics(io.Discard, nil, p.Stats(), monitor.NewHealth())
		for tier := 0; tier <= 3; tier++ {
			_, _ = p.HistoryJSON("", tier, 4)
		}
		_, _ = p.AnomaliesJSON()
		p.CaptureState()
	})
}
