package audit

import (
	"bytes"
	"encoding/gob"
	"io"
	"testing"

	"nektarg/internal/monitor"
)

// FuzzAuditApplyState: any bytes that gob-decode into a State restore a
// ledger that keeps judging exchanges and renders its exposition, status
// and JSON without panicking. The seed corpus holds the capture of the
// fixture ledger and a truncated copy of it.
func FuzzAuditApplyState(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		var st State
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&st); err != nil {
			return
		}
		led := New(Options{})
		led.ApplyState(&st)
		for ex := 1; ex <= 3; ex++ {
			for _, bs := range st.Budgets {
				if bs.Mode == "drift" {
					led.ObserveDrift(bs.Name, float64(ex))
				} else {
					led.ObserveResidual(bs.Name, 0.5*float64(ex), 1)
				}
			}
			led.CountExchange("insert", 24, 24, 24)
			led.EndExchange(int(st.Exchanges) + ex)
		}
		_ = monitor.WriteMetrics(io.Discard, nil, led.Stats(), monitor.NewHealth())
		_ = led.WriteJSON(io.Discard)
		led.Status()
		led.Healthy()
	})
}
