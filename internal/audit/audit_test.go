package audit

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestResidualStepBands walks a residual budget through the three step
// severities and checks the latch discipline: warn emits once, critical
// latches for good, recovery from warn re-arms.
func TestResidualStepBands(t *testing.T) {
	var got []Violation
	l := New(Options{})
	l.OnViolation(func(v Violation) { got = append(got, v) })

	// gi.flux class: warn 0.02, critical 0.10.
	l.ObserveResidual("gi.flux:omegaA", 0.001, 1.0) // rel 0.001 — ok
	if len(got) != 0 {
		t.Fatalf("in-band observation emitted %d violations", len(got))
	}
	l.ObserveResidual("gi.flux:omegaA", 0.05, 1.0) // warn
	if len(got) != 1 || got[0].Severity != SevWarn || got[0].Kind != "step" {
		t.Fatalf("warn transition: got %+v", got)
	}
	l.ObserveResidual("gi.flux:omegaA", 0.06, 1.0) // still warn: no re-emit
	if len(got) != 1 {
		t.Fatalf("repeated warn re-emitted: %d violations", len(got))
	}
	l.ObserveResidual("gi.flux:omegaA", 0.5, 1.0) // critical
	if len(got) != 2 || got[1].Severity != SevCritical {
		t.Fatalf("critical transition: got %+v", got)
	}
	l.ObserveResidual("gi.flux:omegaA", 0.0, 1.0) // critical latches
	rep := l.Status()
	if rep.Budgets[0].StepSeverity != SevCritical {
		t.Fatalf("critical did not latch: %+v", rep.Budgets[0])
	}
	if len(got) != 2 {
		t.Fatalf("latched critical emitted more violations: %d", len(got))
	}
	if l.Healthy() {
		t.Fatal("ledger with latched critical reports healthy")
	}
}

// TestResidualWarnRecovery checks that warn (unlike critical) re-arms when
// the defect returns inside the band.
func TestResidualWarnRecovery(t *testing.T) {
	l := New(Options{})
	l.ObserveResidual("gi.flux:omegaA", 0.05, 1.0) // warn
	l.ObserveResidual("gi.flux:omegaA", 0.001, 1.0)
	rep := l.Status()
	if rep.Budgets[0].StepSeverity != SevOK {
		t.Fatalf("warn did not recover: %+v", rep.Budgets[0])
	}
	if !l.Healthy() {
		t.Fatal("recovered ledger reports unhealthy")
	}
}

// TestSlowLeakDetection feeds a residual budget a bias far below the step
// bands and requires the EMA leak taxonomy — and only it — to trip.
func TestSlowLeakDetection(t *testing.T) {
	var got []Violation
	l := New(Options{})
	l.OnViolation(func(v Violation) { got = append(got, v) })
	// gi.flux leak bands: warn 0.005, critical 0.05; step warn 0.02. A
	// persistent +1% bias never trips the step band but its EMA settles at
	// 0.01 > leak-warn.
	for i := 0; i < 200; i++ {
		l.ObserveResidual("gi.flux:omegaA", 0.01, 1.0)
	}
	rep := l.Status()
	if rep.Budgets[0].StepSeverity != SevOK {
		t.Fatalf("1%% bias tripped the step band: %+v", rep.Budgets[0])
	}
	if rep.Budgets[0].LeakSeverity != SevWarn {
		t.Fatalf("1%% bias did not trip the leak band: %+v", rep.Budgets[0])
	}
	if len(got) != 1 || got[0].Kind != "leak" {
		t.Fatalf("leak violations: %+v", got)
	}
}

// TestDriftStepAndLeak checks drift mode: seeding, jump detection against
// the EMA reference, and baseline-excursion leak detection.
func TestDriftStepAndLeak(t *testing.T) {
	l := New(Options{})
	l.SetTolerance("1d.mass:tree", Tolerance{Warn: 0.1, Critical: 0.5, LeakWarn: 0.3, LeakCritical: 1.0, Alpha: 0.5, LeakMinCount: 2})
	l.ObserveDrift("1d.mass:tree", 100) // seeds ref and baseline
	rep := l.Status()
	if rep.Budgets[0].Count != 1 || rep.Budgets[0].Ref != 100 || rep.Budgets[0].Baseline != 100 {
		t.Fatalf("seed: %+v", rep.Budgets[0])
	}
	l.ObserveDrift("1d.mass:tree", 101) // 1% jump: ok
	if rep = l.Status(); rep.Budgets[0].StepSeverity != SevOK {
		t.Fatalf("1%% jump tripped: %+v", rep.Budgets[0])
	}
	l.ObserveDrift("1d.mass:tree", 130) // ~29% jump from ref≈100.5: warn
	if rep = l.Status(); rep.Budgets[0].StepSeverity != SevWarn {
		t.Fatalf("29%% jump did not warn: %+v", rep.Budgets[0])
	}
	// Walk the value upward so the adapting reference migrates ≥30% from
	// the baseline: the leak taxonomy must fire even though each further
	// step stays inside the (recovered) step band.
	v := 130.0
	for i := 0; i < 20; i++ {
		v *= 1.05
		l.ObserveDrift("1d.mass:tree", v)
	}
	rep = l.Status()
	if rep.Budgets[0].LeakSeverity == SevOK {
		t.Fatalf("reference migration did not trip leak: %+v", rep.Budgets[0])
	}
}

// TestByteLegReconciliation checks CountExchange: equal legs stay ok, any
// mismatch is critical under the exact gi.bytes bands.
func TestByteLegReconciliation(t *testing.T) {
	l := New(Options{})
	l.CountExchange("omegaA", 4096, 4096, 4096)
	rep := l.Status()
	if rep.Worst != SevOK {
		t.Fatalf("matched byte legs flagged: %+v", rep)
	}
	if rep.BytesSent != 4096 || rep.BytesReceived != 4096 || rep.BytesApplied != 4096 {
		t.Fatalf("byte totals: %+v", rep)
	}
	l.CountExchange("omegaA", 4096, 4096, 4000) // applied leg short
	rep = l.Status()
	if rep.Worst != SevCritical {
		t.Fatalf("byte mismatch not critical: %+v", rep)
	}
}

// TestToleranceResolution checks base → class → exact overlay order.
func TestToleranceResolution(t *testing.T) {
	l := New(Options{})
	l.SetTolerance("gi.flux:special", Tolerance{Warn: 0.5})
	l.mu.Lock()
	defer l.mu.Unlock()
	if w := l.toleranceForLocked("unknown:thing").Warn; w != baseTolerance.Warn {
		t.Fatalf("base: warn %g, want %g", w, baseTolerance.Warn)
	}
	flux := DefaultTolerances()["gi.flux"]
	if w := l.toleranceForLocked("gi.flux:omegaA").Warn; w != flux.Warn {
		t.Fatalf("class overlay: warn %g, want %g", w, flux.Warn)
	}
	if got := l.toleranceForLocked("gi.flux:special"); got.Warn != 0.5 || got.Critical != flux.Critical {
		t.Fatalf("exact overlay: warn %g critical %g, want 0.5 and the class's %g", got.Warn, got.Critical, flux.Critical)
	}
}

// TestStateRoundTrip pins bit-exact capture/apply through a gob cycle —
// the property the checkpoint layer depends on.
func TestStateRoundTrip(t *testing.T) {
	l := New(Options{})
	for i := 0; i < 37; i++ {
		l.ObserveResidual("gi.flux:omegaA", 0.003*float64(i%5), 1.0)
		l.ObserveDrift("1d.mass:tree", 100+0.1*float64(i))
		l.CountExchange("omegaA", 1024, 1024, 1024)
		l.EndExchange(i + 1)
	}
	st := l.CaptureState()

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	var decoded State
	if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, &decoded) {
		t.Fatalf("gob round-trip mutated state:\n%+v\n%+v", st, &decoded)
	}

	fresh := New(Options{})
	fresh.ApplyState(&decoded)
	if got := fresh.CaptureState(); !reflect.DeepEqual(st, got) {
		t.Fatalf("apply/capture not bit-exact:\n%+v\n%+v", st, got)
	}

	// Continuing both ledgers identically must keep them bit-identical:
	// the EMA chain depends on every captured float.
	for i := 0; i < 11; i++ {
		for _, led := range []*Ledger{l, fresh} {
			led.ObserveResidual("gi.flux:omegaA", 0.007, 1.0)
			led.ObserveDrift("1d.mass:tree", 104-0.2*float64(i))
		}
	}
	if a, b := l.CaptureState(), fresh.CaptureState(); !reflect.DeepEqual(a, b) {
		t.Fatalf("post-restore continuation diverged:\n%+v\n%+v", a, b)
	}
}

// TestApplyStateRestoresLatch checks that a latched critical survives the
// round-trip and that restoring an older, clean state clears a latch (the
// resume-overwrites semantics).
func TestApplyStateRestoresLatch(t *testing.T) {
	l := New(Options{})
	l.ObserveResidual("gi.flux:omegaA", 0.001, 1.0)
	clean := l.CaptureState()
	l.ObserveResidual("gi.flux:omegaA", 0.9, 1.0) // critical
	dirty := l.CaptureState()

	fresh := New(Options{})
	fresh.ApplyState(dirty)
	if fresh.Healthy() {
		t.Fatal("restored critical latch lost")
	}
	fresh.ApplyState(clean)
	if !fresh.Healthy() {
		t.Fatal("restoring clean state did not clear latch")
	}
}

// TestStatsAndJSON spot-checks the exposition faces.
func TestStatsAndJSON(t *testing.T) {
	l := New(Options{})
	l.ObserveResidual("gi.flux:omegaA", 0.5, 1.0) // critical
	l.EndExchange(7)

	stats := l.Stats()
	byName := map[string]float64{}
	for _, s := range stats {
		if s.Help == "" || s.Type == "" {
			t.Fatalf("stat %q missing help/type metadata", s.Name)
		}
		byName[s.Name] = s.Value
	}
	if byName["audit_worst_severity"] != 2 {
		t.Fatalf("worst severity stat: %v", byName)
	}
	if byName["audit_exchanges_total"] != 7 {
		t.Fatalf("exchanges stat: %v", byName)
	}

	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	for _, want := range []string{`"worst_severity": "critical"`, `"gi.flux:omegaA"`, `"exchanges": 7`} {
		if !strings.Contains(doc, want) {
			t.Fatalf("/audit JSON missing %q:\n%s", want, doc)
		}
	}

	table := l.FormatTable()
	if !strings.Contains(table, "gi.flux:omegaA") || !strings.Contains(table, "critical") {
		t.Fatalf("table: %s", table)
	}
	if got := (*Ledger)(nil).FormatTable(); !strings.Contains(got, "no budgets") {
		t.Fatalf("nil table: %q", got)
	}
}

// TestFloorGuardsRelative checks that a tiny scale falls back to the floor
// rather than dividing by ~zero.
func TestFloorGuardsRelative(t *testing.T) {
	l := New(Options{})
	l.SetTolerance("q.match:x", Tolerance{Floor: 1.0, Warn: 0.5, Critical: 2.0})
	l.ObserveResidual("q.match:x", 0.1, 1e-300)
	rep := l.Status()
	if math.Abs(rep.Budgets[0].Rel-0.1) > 1e-15 {
		t.Fatalf("floor not applied: rel %g, want 0.1", rep.Budgets[0].Rel)
	}
	if rep.Worst != SevOK {
		t.Fatalf("floored defect flagged: %+v", rep)
	}
}
