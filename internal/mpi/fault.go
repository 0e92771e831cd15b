package mpi

// Deterministic fault injection for the in-process runtime. The paper's
// production runs survive rank deaths and link-level corruption only because
// the restart path is exercised; this file makes those faults reproducible in
// unit tests. Three fault classes:
//
//   - rank kill: a designated rank panics at a designated FaultPoint step —
//     the in-process analogue of a node dying mid-exchange. The panic unwinds
//     into RunHooked's per-rank recover (or the caller's own envelope, e.g.
//     core's recover-and-resume loop), exactly like a real solver blow-up.
//   - message drop: a send on a matching tag is silently discarded.
//   - message corrupt: a []float64 payload is copied and one element's bits
//     are flipped before delivery (non-float payloads pass through intact).
//   - message delay: a send is held back and delivered only after the sender
//     performs DelayFlush more sends (breaking per-tag FIFO arrival timing).
//
// Every decision is a pure function of (Seed, rank, per-rank send index) via
// splitmix64, so a faulty run is bit-reproducible: the same plan yields the
// same drops, the same flipped bits, the same kill — which is what lets the
// recovery tests assert "faulted run + auto-resume == straight run" exactly.
//
// Fault state is per-rank and travels with the rank through Split, so faults
// keep firing on sub-communicators. Collective-internal traffic (negative
// tags) is exempt unless an explicit TagFilter opts in: the drop/delay
// classes target the coupling payloads, not the runtime's own tree/ring
// bookkeeping, whose loss would wedge every rank in a protocol hang rather
// than model a recoverable data fault.

import (
	"fmt"
	"math"
)

// FaultPlan configures deterministic fault injection for one RunFaulty call.
// The zero value injects nothing.
type FaultPlan struct {
	// Seed drives every probabilistic decision; two runs with equal plans
	// inject identical faults.
	Seed uint64

	// KillRank / KillStep: the first time rank KillRank calls
	// FaultPoint(KillStep), it panics with an InjectedKill. KillStep <= 0
	// disables the kill (keeping the zero plan inert). The kill is one-shot
	// per rank goroutine: after it fires once, later FaultPoints on that
	// rank are no-ops, so a caller that recovers and resumes (core's
	// recover-and-resume loop) makes forward progress instead of dying at
	// the same site forever.
	KillRank int
	KillStep int

	// Per-send fault probabilities in [0, 1], applied in this precedence:
	// drop, then corrupt, then delay. At most one fault fires per send.
	DropProb    float64
	CorruptProb float64
	DelayProb   float64

	// DelayFlush is how many subsequent sends by the same rank a delayed
	// message is held for before delivery (default 2 when DelayProb > 0).
	// Held messages are also flushed when the rank passes a FaultPoint and
	// when its body returns, so a delayed message is never lost.
	DelayFlush int

	// TagFilter selects which tags are eligible for drop/corrupt/delay.
	// Nil means every user-band and reserved-band tag (tag >= 0);
	// collective-internal negative tags are never eligible unless the
	// filter explicitly accepts them.
	TagFilter func(tag int) bool
}

// InjectedKill is the panic value of a FaultPoint kill; recovery envelopes
// can detect injected (as opposed to organic) rank deaths by type.
type InjectedKill struct {
	Rank int
	Step int
}

func (k InjectedKill) String() string {
	return fmt.Sprintf("injected kill: rank %d at fault point %d", k.Rank, k.Step)
}

// FaultStats counts the faults a rank's sends actually suffered. Retrieve
// via Comm.FaultStats; deterministic for a fixed plan.
type FaultStats struct {
	Sends     uint64 // eligible sends inspected
	Dropped   uint64
	Corrupted uint64
	Delayed   uint64
}

// heldMsg is one delayed message awaiting flush. It remembers the
// communicator and destination rank (not a mailbox) so the flush routes
// through the same local/remote seam as the original send — a delayed
// message to a rank in another process still crosses the wire.
type heldMsg struct {
	st  *commState
	dst int
	m   message
	due uint64 // flush when the rank's send index reaches this
}

// faultState is one rank's fault-injection state. It is owned by the rank's
// goroutine (like the Comm handle itself) and shared by every communicator
// handle that rank derives through Split.
type faultState struct {
	plan  *FaultPlan
	rank  int // world rank of the owning goroutine
	fired bool
	sends uint64 // per-rank send index; the determinism axis
	held  []heldMsg
	stats FaultStats
}

// splitmix64 is the standard 64-bit mix; one invocation per decision keeps
// the fault schedule independent of payload contents and goroutine timing.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// eligible reports whether a tag may suffer drop/corrupt/delay under the plan.
func (f *faultState) eligible(tag int) bool {
	if f.plan.TagFilter != nil {
		return f.plan.TagFilter(tag)
	}
	return tag >= 0
}

// interceptSend applies the plan to one outgoing message. It returns true
// when the message was consumed (dropped or held); false means the caller
// should deliver m as usual (possibly with a corrupted payload).
func (f *faultState) interceptSend(st *commState, dst int, m *message, tag int) bool {
	f.sends++
	f.flushDue()
	p := f.plan
	if p.DropProb <= 0 && p.CorruptProb <= 0 && p.DelayProb <= 0 {
		return false
	}
	if !f.eligible(tag) {
		return false
	}
	f.stats.Sends++
	h := splitmix64(p.Seed ^ splitmix64(uint64(f.rank)+1) ^ f.sends)
	u := unit(h)
	switch {
	case u < p.DropProb:
		f.stats.Dropped++
		return true
	case u < p.DropProb+p.CorruptProb:
		if data, ok := m.data.([]float64); ok && len(data) > 0 {
			f.stats.Corrupted++
			m.data = corruptFloats(data, splitmix64(h))
		}
		return false
	case u < p.DropProb+p.CorruptProb+p.DelayProb:
		f.stats.Delayed++
		flush := p.DelayFlush
		if flush <= 0 {
			flush = 2
		}
		f.held = append(f.held, heldMsg{st: st, dst: dst, m: *m, due: f.sends + uint64(flush)})
		return true
	}
	return false
}

// corruptFloats copies data and flips a high exponent bit of one element
// chosen by the hash — a single-bit upset that changes the value by many
// orders of magnitude, the kind a NaN/range guard must catch.
func corruptFloats(data []float64, h uint64) []float64 {
	out := make([]float64, len(data))
	copy(out, data)
	i := int(h % uint64(len(out)))
	out[i] = math.Float64frombits(math.Float64bits(out[i]) ^ (1 << 62))
	return out
}

// flushDue delivers every held message whose due point has passed.
func (f *faultState) flushDue() {
	kept := f.held[:0]
	for _, hm := range f.held {
		if f.sends >= hm.due {
			hm.st.route(hm.dst, hm.m)
		} else {
			kept = append(kept, hm)
		}
	}
	f.held = kept
}

// flushAll delivers every held message unconditionally.
func (f *faultState) flushAll() {
	for _, hm := range f.held {
		hm.st.route(hm.dst, hm.m)
	}
	f.held = nil
}

// FaultPoint marks a deterministic kill site in rank code: under a plan with
// KillRank == this rank and KillStep == step, the first call panics with an
// InjectedKill. Steps are caller-defined (exchange number, solver step, ...).
// Without a plan — or after the kill has fired once — it only flushes any
// due delayed messages and returns. Place it where a real crash would be
// survivable-by-restart: between exchanges, after a checkpoint, etc.
func (c *Comm) FaultPoint(step int) {
	f := c.faults
	if f == nil {
		return
	}
	f.flushDue()
	if !f.fired && f.plan.KillStep > 0 && f.rank == f.plan.KillRank && step == f.plan.KillStep {
		f.fired = true
		panic(InjectedKill{Rank: f.rank, Step: step})
	}
}

// FaultStats returns the counts of faults injected into this rank's sends so
// far (zero value when no plan is active).
func (c *Comm) FaultStats() FaultStats {
	if c.faults == nil {
		return FaultStats{}
	}
	return c.faults.stats
}

// RunFaulty is RunHooked with deterministic fault injection: every rank's
// sends pass through the plan's drop/corrupt/delay schedule, and FaultPoint
// calls arm the plan's rank kill. Held (delayed) messages are flushed when a
// rank's body returns, so no payload is lost across the run boundary.
func RunFaulty(size int, plan FaultPlan, body func(world *Comm), onPanic func(rank int, recovered any)) error {
	return runRanks(size, body, onPanic, &plan)
}
