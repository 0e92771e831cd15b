// Package audit is the physics half of the observability plane: where
// internal/monitor answers "is this run alive?" (NaN guards, CFL, CG,
// particle drift), audit answers "is this run *correct*, live?" — are mass,
// momentum and energy actually balanced across the solvers and across the
// ΓI continuum↔atomistic and 1D↔3D couplings, or is the run silently
// drifting toward the state the NaN watchdog will eventually catch?
//
// The Ledger tracks named per-exchange budgets, each in one of two modes:
//
//   - Residual budgets (ObserveResidual) watch a defect that has an exact
//     zero expectation — the ΓI flux mismatch between the velocities the
//     continuum side sent and the velocities the flux BC applied, the
//     kinetic-temperature deviation from the thermostat target, the realized
//     1D inlet flow versus the commanded 3D outlet flow. The step test is
//     |defect| / max(|scale|, floor) against the Warn/Critical bands; an
//     exponential moving average of the *signed* relative defect feeds the
//     slow-leak test, which catches a bias far below the step bands (a 1%
//     systematic loss per exchange never trips a 10% step band but
//     integrates to a broken run).
//
//   - Drift budgets (ObserveDrift) watch a quantity with no exact target —
//     the 3D divergence norm, the kinetic-energy budget, the per-particle
//     DPD momentum, the 1D network's conserved volume invariant. The first
//     observation seeds both a slowly adapting EMA reference and a fixed
//     baseline; a per-exchange jump relative to the reference is a step
//     change (the PR-3 particle-watchdog taxonomy), while the reference
//     itself migrating away from the baseline is a slow leak. Leak bands
//     default to off for quantities that legitimately evolve (a starting
//     flow's kinetic energy grows toward steady state) and on for genuine
//     invariants (the 1D network's V − ∫Q_in + ∫Q_out).
//
// Violations latch per budget exactly like watchdog transitions: severity
// transitions emit (to the health plane, the telemetry gauges, the journal
// via OnViolation) once, and critical latches for the life of the run until
// a checkpoint restore overlays an older ledger state.
//
// Disabled means nil, as everywhere in this codebase: every method on a nil
// *Ledger is a no-op costing one nil check and zero allocations, pinned by
// TestAuditDisabledZeroCost in verify.sh. The enabled path takes a mutex —
// budgets update once per exchange, not once per step, so the lock is far
// off the hot path — which is what lets /audit and /metrics scrape the
// ledger while the metasolver writes it.
package audit

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"nektarg/internal/monitor"
	"nektarg/internal/telemetry"
)

// Severity mirrors the monitor plane's three-level taxonomy so one
// vocabulary spans both. It is the exported, gob-stable form.
type Severity int

const (
	SevOK       Severity = 0
	SevWarn     Severity = 1
	SevCritical Severity = 2
)

// String renders the severity for JSON and log output.
func (s Severity) String() string {
	switch s {
	case SevWarn:
		return "warn"
	case SevCritical:
		return "critical"
	default:
		return "ok"
	}
}

// health converts to the monitor plane's severity levels.
func (s Severity) health() monitor.Severity {
	switch s {
	case SevWarn:
		return monitor.SevWarn
	case SevCritical:
		return monitor.SevCritical
	default:
		return monitor.SevInfo
	}
}

// Tolerance is one budget's acceptance bands. Zero-valued fields inherit the
// class default (see DefaultTolerances); a wholly zero Tolerance means "use
// the class default unchanged".
type Tolerance struct {
	// Warn and Critical band the per-exchange relative defect (residual
	// mode) or the jump relative to the EMA reference (drift mode).
	Warn, Critical float64
	// Alpha is the EMA adaptation rate (default 0.05, the particle-watchdog
	// rate: ~20 exchanges of memory).
	Alpha float64
	// Floor guards the relative division: defects are measured against
	// max(|scale or reference|, Floor). A thermal velocity, a minimum
	// resolvable flow — drift below the floor is noise, not signal.
	Floor float64
	// LeakWarn and LeakCritical band the slow-leak statistic: the |EMA of
	// the signed relative defect| (residual mode) or the EMA reference's
	// excursion from the fixed baseline (drift mode). Zero disables leak
	// detection for the budget (quantities that legitimately evolve).
	LeakWarn, LeakCritical float64
	// LeakMinCount delays leak judgement until the EMA has seen this many
	// observations (default 8): a two-sample "average" is not a trend.
	LeakMinCount int64
}

// merge overlays non-zero fields of o onto t.
func (t Tolerance) merge(o Tolerance) Tolerance {
	if o.Warn != 0 {
		t.Warn = o.Warn
	}
	if o.Critical != 0 {
		t.Critical = o.Critical
	}
	if o.Alpha != 0 {
		t.Alpha = o.Alpha
	}
	if o.Floor != 0 {
		t.Floor = o.Floor
	}
	if o.LeakWarn != 0 {
		t.LeakWarn = o.LeakWarn
	}
	if o.LeakCritical != 0 {
		t.LeakCritical = o.LeakCritical
	}
	if o.LeakMinCount != 0 {
		t.LeakMinCount = o.LeakMinCount
	}
	return t
}

// DefaultTolerances returns the built-in per-class bands, keyed by the
// budget-name prefix before the first ':'. The classes map onto the paper's
// coupling-fidelity surfaces:
//
//	gi.flux      ΓI flux continuity: sent vs applied interface velocities.
//	             Exact-zero expectation; 2% warns, 10% is critical.
//	gi.bytes     ΓI exchange byte reconciliation across the 3-step path
//	             (gather → root exchange → scatter). Any mismatch is
//	             critical — bytes are not statistical.
//	mass.div     3D divergence norm (the projection's mass defect). Step
//	             jumps only; the norm legitimately tracks the flow.
//	energy.kinetic  3D kinetic-energy budget. Step jumps only — a starting
//	             flow's energy grows toward steady state, so a leak band
//	             would false-positive on spin-up.
//	momentum     DPD per-particle momentum magnitude. Step jumps only
//	             (open flux boundaries exchange momentum by design).
//	temperature  DPD kinetic temperature vs the thermostat target. Wide
//	             step bands (small-N fluctuation is O(1/√N)); the leak
//	             band catches slow heating the step bands never see.
//	1d.mass      1D network mass balance: V − ∫Q_in dt + ∫Q_out dt is an
//	             exact invariant of a conservative scheme, including the
//	             windkessel terminal outflow. Leak detection on.
//	q.match      1D↔3D flow-rate mismatch: realized 1D inlet flow vs the
//	             commanded 3D outlet flow.
func DefaultTolerances() map[string]Tolerance {
	return map[string]Tolerance{
		"gi.flux":        {Warn: 0.02, Critical: 0.10, LeakWarn: 0.005, LeakCritical: 0.05},
		"gi.bytes":       {Warn: 1e-12, Critical: 1e-9},
		"mass.div":       {Warn: 0.5, Critical: 2.0},
		"energy.kinetic": {Warn: 0.5, Critical: 2.0},
		"momentum":       {Warn: 1.0, Critical: 4.0},
		"temperature":    {Warn: 1.5, Critical: 5.0, LeakWarn: 0.75, LeakCritical: 2.5},
		"1d.mass":        {Warn: 0.05, Critical: 0.25, LeakWarn: 0.02, LeakCritical: 0.1},
		"q.match":        {Warn: 0.05, Critical: 0.25, LeakWarn: 0.02, LeakCritical: 0.1},
	}
}

// baseTolerance is the fallback for budgets outside the known classes.
var baseTolerance = Tolerance{
	Warn: 0.1, Critical: 0.5,
	Alpha: 0.05, Floor: 1e-12,
	LeakMinCount: 8,
}

// Violation is one severity transition on one budget, delivered to
// OnViolation hooks (the journal bridge) at the moment it latches.
type Violation struct {
	Budget   string   `json:"budget"`
	Kind     string   `json:"kind"` // "step" or "leak"
	Severity Severity `json:"severity"`
	Value    float64  `json:"value"` // the offending statistic
	Limit    float64  `json:"limit"` // the band it crossed
	Exchange int64    `json:"exchange"`
	Message  string   `json:"message"`
}

// budget is one tracked quantity's live state. The serializable subset is
// mirrored by BudgetState (state.go); everything else is configuration.
type budget struct {
	name string
	tol  Tolerance
	mode string // "residual" or "drift"

	count      int64
	rel        float64 // last relative defect (residual) or jump (drift)
	ema        float64 // EMA of the signed relative defect (residual mode)
	ref        float64 // EMA reference (drift mode)
	baseline   float64 // first observation (drift mode)
	seeded     bool
	stepSev    Severity
	leakSev    Severity
	violations int64
}

// worst returns the budget's latched severity across both taxonomies.
func (b *budget) worst() Severity {
	if b.leakSev > b.stepSev {
		return b.leakSev
	}
	return b.stepSev
}

// Options configures a Ledger.
type Options struct {
	// Rec is the ledger's telemetry recorder (track "audit" by convention);
	// nil disables the audit.* gauges. The Ledger serializes its own calls,
	// satisfying the recorder's single-owner contract.
	Rec *telemetry.Recorder
	// Watch is the health-plane bundle audit transitions mirror into (as
	// "audit-ledger" events, so criticals trip /healthz and fire the flight
	// recorder through the existing OnTrip wiring); nil disables.
	Watch *monitor.Watchdogs
}

// Ledger is a per-rank conservation ledger. Create with New; nil is the
// disabled ledger (every method a nil-check no-op).
type Ledger struct {
	mu      sync.Mutex
	classes map[string]Tolerance
	exact   map[string]Tolerance // SetTolerance overlays
	budgets map[string]*budget
	order   []string // insertion order; sorted views sort copies

	rec   *telemetry.Recorder
	watch *monitor.Watchdogs
	hooks []func(Violation)

	exchanges                              int64
	bytesSent, bytesReceived, bytesApplied int64
}

// New builds a ledger over the built-in tolerance tables.
func New(opts Options) *Ledger {
	return &Ledger{
		classes: DefaultTolerances(),
		exact:   map[string]Tolerance{},
		budgets: map[string]*budget{},
		rec:     opts.Rec,
		watch:   opts.Watch,
	}
}

// OnViolation registers a hook invoked (under the ledger lock, keep it
// cheap) for every severity transition — the journal bridge subscribes here.
func (l *Ledger) OnViolation(fn func(Violation)) {
	if l == nil || fn == nil {
		return
	}
	l.mu.Lock()
	l.hooks = append(l.hooks, fn)
	l.mu.Unlock()
}

// SetTolerance overrides the bands for one exact budget name. Call before
// the budget's first observation.
func (l *Ledger) SetTolerance(budget string, t Tolerance) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.exact[budget] = t
	if b, ok := l.budgets[budget]; ok {
		b.tol = l.toleranceForLocked(budget)
	}
	l.mu.Unlock()
}

// classOf extracts the tolerance-class prefix of a budget name.
func classOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == ':' {
			return name[:i]
		}
	}
	return name
}

// toleranceForLocked resolves base → class → exact for one budget name.
func (l *Ledger) toleranceForLocked(name string) Tolerance {
	t := baseTolerance
	if ct, ok := l.classes[classOf(name)]; ok {
		t = t.merge(ct)
	}
	if et, ok := l.exact[name]; ok {
		t = t.merge(et)
	}
	return t
}

// get returns (creating if needed) the named budget. Caller holds the lock.
func (l *Ledger) get(name, mode string) *budget {
	b, ok := l.budgets[name]
	if !ok {
		b = &budget{name: name, tol: l.toleranceForLocked(name), mode: mode}
		l.budgets[name] = b
		l.order = append(l.order, name)
	}
	return b
}

// ObserveResidual feeds one observation of a defect with exact zero
// expectation, measured against a characteristic scale: the step statistic
// is defect / max(|scale|, floor), the leak statistic is its signed EMA.
func (l *Ledger) ObserveResidual(name string, defect, scale float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.get(name, "residual")
	rel := defect / math.Max(math.Abs(scale), b.tol.Floor)
	b.count++
	b.rel = rel
	if b.count == 1 {
		b.ema = rel
	} else {
		b.ema += float64(b.tol.Alpha * (rel - b.ema))
	}
	l.judgeStep(b, math.Abs(rel))
	if b.count >= b.tol.LeakMinCount {
		l.judgeLeak(b, math.Abs(b.ema))
	}
	l.gauge(b)
}

// ObserveDrift feeds one observation of a quantity with no exact target.
// The first call seeds the EMA reference and the fixed baseline; later
// calls judge the jump against the reference (step) and the reference's
// excursion from the baseline (leak), then adapt the reference.
func (l *Ledger) ObserveDrift(name string, value float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.get(name, "drift")
	b.count++
	if !b.seeded {
		b.seeded = true
		b.ref = value
		b.baseline = value
		b.rel = 0
		l.gauge(b)
		return
	}
	rel := (value - b.ref) / math.Max(math.Abs(b.ref), b.tol.Floor)
	b.rel = rel
	l.judgeStep(b, math.Abs(rel))
	b.ref += float64(b.tol.Alpha * (value - b.ref))
	b.ema = (b.ref - b.baseline) / math.Max(math.Abs(b.baseline), b.tol.Floor)
	if b.count >= b.tol.LeakMinCount {
		l.judgeLeak(b, math.Abs(b.ema))
	}
	l.gauge(b)
}

// CountExchange reconciles the byte legs of one ΓI exchange: payload bytes
// sent by the gather leg, received after the root exchange, and applied by
// the scatter/install leg. The legs must agree exactly — bytes are not
// statistical — so the residual is judged under the gi.bytes bands.
func (l *Ledger) CountExchange(name string, sent, received, applied int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.bytesSent += sent
	l.bytesReceived += received
	l.bytesApplied += applied
	l.mu.Unlock()
	defect := math.Abs(float64(sent-received)) + math.Abs(float64(received-applied))
	l.ObserveResidual("gi.bytes:"+name, defect, float64(sent))
}

// EndExchange stamps the completion of one coupling exchange — the ledger's
// clock, checkpointed so resumed budgets stay aligned with the metasolver.
func (l *Ledger) EndExchange(exchange int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.exchanges = int64(exchange)
	l.mu.Unlock()
}

// judgeStep latches the per-exchange band verdict. Caller holds the lock.
func (l *Ledger) judgeStep(b *budget, v float64) {
	sev := SevOK
	limit := b.tol.Warn
	switch {
	case b.tol.Critical > 0 && v > b.tol.Critical:
		sev, limit = SevCritical, b.tol.Critical
	case b.tol.Warn >= 0 && v > b.tol.Warn:
		sev = SevWarn
	}
	l.transition(b, "step", &b.stepSev, sev, v, limit)
}

// judgeLeak latches the slow-leak verdict. Caller holds the lock. Zero leak
// bands disable the taxonomy for the budget.
func (l *Ledger) judgeLeak(b *budget, v float64) {
	if b.tol.LeakWarn == 0 && b.tol.LeakCritical == 0 {
		return
	}
	sev := SevOK
	limit := b.tol.LeakWarn
	switch {
	case b.tol.LeakCritical > 0 && v > b.tol.LeakCritical:
		sev, limit = SevCritical, b.tol.LeakCritical
	case b.tol.LeakWarn > 0 && v > b.tol.LeakWarn:
		sev = SevWarn
	}
	l.transition(b, "leak", &b.leakSev, sev, v, limit)
}

// transition applies the watchdog latch discipline to one taxonomy slot:
// emit only on change, never descend from critical, recovery emits once.
func (l *Ledger) transition(b *budget, kind string, slot *Severity, sev Severity, v, limit float64) {
	prev := *slot
	if sev == prev || prev == SevCritical {
		return
	}
	*slot = sev
	if sev < prev {
		l.watch.Event(monitor.SevInfo, "audit-ledger",
			fmt.Sprintf("%s: %s recovered (%.3g within %.3g)", b.name, kind, v, limit), v)
		return
	}
	b.violations++
	msg := fmt.Sprintf("%s: %s violation: |%s| %.3g exceeds %s band %.3g",
		b.name, kind, statName(b, kind), v, sev, limit)
	l.watch.Event(sev.health(), "audit-ledger", msg, v)
	viol := Violation{
		Budget: b.name, Kind: kind, Severity: sev,
		Value: v, Limit: limit, Exchange: l.exchanges, Message: msg,
	}
	for _, fn := range l.hooks {
		fn(viol)
	}
}

// statName names the judged statistic for violation messages.
func statName(b *budget, kind string) string {
	if kind == "leak" {
		if b.mode == "drift" {
			return "reference drift"
		}
		return "defect EMA"
	}
	if b.mode == "drift" {
		return "jump"
	}
	return "relative defect"
}

// gauge mirrors the budget's statistics into the telemetry track. Caller
// holds the lock; the recorder is owned by the ledger, so this is the one
// goroutine-at-a-time access the recorder contract requires.
func (l *Ledger) gauge(b *budget) {
	if l.rec == nil {
		return
	}
	l.rec.Gauge("audit."+b.name+".rel", b.rel)
	l.rec.Gauge("audit."+b.name+".ema", b.ema)
	l.rec.Gauge("audit."+b.name+".sev", float64(b.worst()))
}

// BudgetStatus is one budget's scrape-time view (the /audit document).
type BudgetStatus struct {
	Name         string   `json:"name"`
	Mode         string   `json:"mode"`
	Count        int64    `json:"count"`
	Rel          float64  `json:"rel"`
	EMA          float64  `json:"ema"`
	Ref          float64  `json:"ref,omitempty"`
	Baseline     float64  `json:"baseline,omitempty"`
	StepSeverity Severity `json:"-"`
	LeakSeverity Severity `json:"-"`
	StepSev      string   `json:"step_severity"`
	LeakSev      string   `json:"leak_severity"`
	Violations   int64    `json:"violations"`
	Warn         float64  `json:"warn"`
	Critical     float64  `json:"critical"`
}

// Status snapshots every budget, sorted by name, plus the ledger clock and
// byte legs. Safe to call from any goroutine.
func (l *Ledger) Status() StatusReport {
	if l == nil {
		return StatusReport{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	rep := StatusReport{
		Exchanges:     l.exchanges,
		BytesSent:     l.bytesSent,
		BytesReceived: l.bytesReceived,
		BytesApplied:  l.bytesApplied,
	}
	names := append([]string(nil), l.order...)
	sort.Strings(names)
	for _, name := range names {
		b := l.budgets[name]
		rep.Budgets = append(rep.Budgets, BudgetStatus{
			Name: b.name, Mode: b.mode, Count: b.count,
			Rel: b.rel, EMA: b.ema, Ref: b.ref, Baseline: b.baseline,
			StepSeverity: b.stepSev, LeakSeverity: b.leakSev,
			StepSev: b.stepSev.String(), LeakSev: b.leakSev.String(),
			Violations: b.violations,
			Warn:       b.tol.Warn, Critical: b.tol.Critical,
		})
		if w := b.worst(); w > rep.Worst {
			rep.Worst = w
		}
		rep.Violations += b.violations
	}
	return rep
}

// StatusReport is the ledger's full scrape-time view.
type StatusReport struct {
	Exchanges     int64          `json:"exchanges"`
	Worst         Severity       `json:"-"`
	WorstSeverity string         `json:"worst_severity"`
	Violations    int64          `json:"violations"`
	BytesSent     int64          `json:"bytes_sent"`
	BytesReceived int64          `json:"bytes_received"`
	BytesApplied  int64          `json:"bytes_applied"`
	Budgets       []BudgetStatus `json:"budgets"`
}

// Healthy reports whether no budget has latched warn or critical.
func (l *Ledger) Healthy() bool {
	if l == nil {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, b := range l.budgets {
		if b.worst() > SevOK {
			return false
		}
	}
	return true
}
