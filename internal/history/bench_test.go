package history

import (
	"testing"
	"time"

	"nektarg/internal/telemetry"
)

// benchRecorders builds a realistic two-track telemetry state: the stage,
// gauge and traffic namespaces one coupled exchange actually produces.
func benchRecorders() []*telemetry.Recorder {
	reg := telemetry.NewRegistry()
	r0 := reg.NewRecorder("rank0")
	r1 := reg.NewRecorder("rank1")
	for _, r := range []*telemetry.Recorder{r0, r1} {
		r.RecordSpan("ns.step", 0, 10*time.Millisecond, 0, 0)
		r.RecordSpan("exchange", 0, 2*time.Millisecond, 0, 0)
		r.Gauge("cg_iterations", 14)
		r.Gauge("particles", 400)
		r.CountMessage(telemetry.LevelL4, telemetry.OpCoupling, 4096)
	}
	return []*telemetry.Recorder{r0, r1}
}

// BenchmarkSampleExchange is the enabled hot path: one full history sample
// per coupled exchange (stride 1), runtime series included — the number the
// <1%-of-step-time overhead budget is about.
func BenchmarkSampleExchange(b *testing.B) {
	p := New(Options{})
	recs := benchRecorders()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.SampleExchange(int64(i+1), 0.012, recs)
	}
}

// BenchmarkHistoryDisabled is the nil-plane path every undecorated run pays:
// it must stay at 0 allocs/op (TestHistoryDisabledZeroCost in internal/core
// pins the same property as a hard test).
func BenchmarkHistoryDisabled(b *testing.B) {
	var p *Plane
	recs := benchRecorders()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.SampleExchange(int64(i+1), 0.012, recs)
	}
}
