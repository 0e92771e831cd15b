// Package mpi is an in-process message-passing runtime with MPI-like
// semantics: a World communicator spanning N ranks (goroutines), communicator
// splitting, point-to-point send/receive with tag matching, and the
// collectives the Multilevel Communicating Interface is built from.
//
// The paper's MCI (§3.1) is defined purely in terms of MPI_COMM_WORLD
// decomposition into L2/L3/L4 sub-communicators plus root-to-root p2p
// exchanges. This runtime provides exactly those primitives with the same
// semantics — rank numbering by (color, key) split, FIFO ordering per
// (source, destination, tag), and blocking collectives — so the coupling
// algorithms run verbatim, just inside one process.
//
// # Collective algorithms
//
// Collectives use the scalable topologies the paper's hierarchy presumes
// rather than rank-0 funnels (see collectives.go):
//
//   - Bcast, Gather, Scatter: binomial trees rooted (virtually) at the root
//     rank — O(log P) latency depth.
//   - Allreduce, AllreduceInt: recursive doubling over the largest power of
//     two P' ≤ P, with the P−P' remainder ranks folded in before and fanned
//     out after the doubling rounds.
//   - Barrier: dissemination barrier — ceil(log2 P) rounds at distances
//     1, 2, 4, ..., correct for any P.
//   - Split: tree Gather of (color, key) requests to rank 0, which computes
//     the partition, then tree Scatter of the assignments.
//
// # Payload ownership
//
// Sends are eager (buffered): a Send never blocks, mirroring MPI's eager
// protocol for the small interface payloads the coupled solvers exchange.
// Message payloads transfer ownership: the sender must not mutate a sent
// slice afterwards.
//
// Collectives that hand one logical payload to several ranks (Bcast,
// Allreduce, Scatter) give every rank an independent buffer: slice payloads
// are copied (fresh backing array, shallow element copy) on every hop, so a
// rank may freely mutate what a collective returned without racing its
// peers. Non-slice payloads (scalars, strings, structs) are passed through
// by value; pointer-bearing payloads remain the caller's responsibility.
//
// # Tag spaces
//
// User tags live in [0, ReservedTagBase). The band
// [ReservedTagBase, ReservedTagBase+ReservedTagSpan) is reserved for
// library-internal traffic (the mci root-to-root interface exchanges) and is
// addressed through SendReserved/RecvReserved with a validated salt; plain
// Send/Recv reject tags in the reserved band so user traffic can never
// collide with coupling traffic. Negative tags are internal to the
// collectives and rejected everywhere else.
//
// # Hop clock
//
// Every rank carries a Lamport-style hop clock (see Hops) advanced by each
// send and receive. Its maximum over ranks measures a communication phase's
// critical-path depth in point-to-point operations — the latency a machine
// with one processor per rank would see — which is how the collectives'
// O(log P) scaling is benchmarked and regression-tested on hosts with fewer
// cores than ranks.
package mpi

import (
	"errors"
	"fmt"
	"sync"

	"nektarg/internal/telemetry"
)

// message is one in-flight point-to-point payload. clock carries the
// sender's hop clock so the receiver can extend the critical path (see
// Comm.Hops).
type message struct {
	src   int
	tag   int
	clock int
	data  any
}

// mailbox buffers messages destined for one rank of one communicator. A
// Comm handle belongs to one goroutine and take is the only receive that
// waits, so a mailbox has at most one waiting receive: its (src, tag) sits
// in the waiter slot, and put hands a matching message straight to it
// instead of buffering it. Invariant: no buffered message matches the
// waiter, so matching order is arrival order.
//
// wake is allocated with the mailbox and has capacity 1, so a receive that
// waits allocates nothing and a hand-off never blocks the sender. Whoever
// clears the waiter slot under mu (put with a match, close at teardown) is
// the only party that may then send on or close wake.
type mailbox struct {
	mu         sync.Mutex
	msgs       []message
	waiting    bool // the waiter slot is taken
	wsrc, wtag int  // what the waiting receive matches
	wake       chan message
	closed     error // non-nil once the world is torn down; see close
}

func newMailbox() *mailbox { return &mailbox{wake: make(chan message, 1)} }

func matches(src, tag int, m message) bool {
	return (src == AnySource || m.src == src) && m.tag == tag
}

// put hands m to the waiting receive when it matches, or buffers it.
// Messages arriving after close are dropped — the world is over and nobody
// can legally receive them.
func (mb *mailbox) put(m message) {
	mb.mu.Lock()
	if mb.closed != nil {
		mb.mu.Unlock()
		return
	}
	if mb.waiting && matches(mb.wsrc, mb.wtag, m) {
		mb.waiting = false
		mb.mu.Unlock()
		mb.wake <- m
		return
	}
	mb.msgs = append(mb.msgs, m)
	mb.mu.Unlock()
}

// take removes and returns the first message matching (src, tag), blocking
// until one arrives. src == AnySource matches every sender. On a torn-down
// mailbox take panics with a WorldLostError rather than blocking forever. A
// second receive while one is waiting means c is shared between goroutines,
// and panics naming the communicator and rank.
func (mb *mailbox) take(c *Comm, src, tag int) message {
	mb.mu.Lock()
	if mb.waiting {
		mb.mu.Unlock()
		panic(fmt.Sprintf("mpi: a second receive on communicator %q rank %d while one is waiting; a Comm handle belongs to one goroutine",
			c.state.name, c.rank))
	}
	for i, m := range mb.msgs {
		if matches(src, tag, m) {
			mb.msgs = append(mb.msgs[:i], mb.msgs[i+1:]...)
			mb.mu.Unlock()
			return m
		}
	}
	if mb.closed != nil {
		cause := mb.closed
		mb.mu.Unlock()
		panic(&WorldLostError{Cause: cause})
	}
	mb.waiting, mb.wsrc, mb.wtag = true, src, tag
	mb.mu.Unlock()
	m, ok := <-mb.wake
	if !ok {
		// close set mb.closed before closing wake, and never writes it again.
		panic(&WorldLostError{Cause: mb.closed})
	}
	return m
}

// close tears the mailbox down: buffered messages are discarded, a waiting
// receive unwinds (wake is closed), later puts are dropped and later takes
// panic with the given cause. Idempotent; the first cause wins.
func (mb *mailbox) close(cause error) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed != nil {
		return
	}
	mb.closed = cause
	mb.msgs = nil
	if mb.waiting {
		mb.waiting = false
		close(mb.wake)
	}
}

// AnySource matches messages from any sender in Recv.
const AnySource = -1

// Reserved tag band for library-internal traffic (the mci root-to-root
// interface exchanges). Plain Send/Recv reject tags in this band; use
// SendReserved/RecvReserved with a salt in [0, ReservedTagSpan).
const (
	// ReservedTagBase is the first reserved tag; user tags must be below it.
	ReservedTagBase = 1 << 20
	// ReservedTagSpan is the number of distinct reserved tags (salts).
	ReservedTagSpan = 1 << 20
)

// Comm is one rank's handle on a communicator. Handles are per-goroutine and
// must not be shared between ranks.
type Comm struct {
	state   *commState
	rank    int
	collSeq int                 // per-rank collective sequence number; all ranks advance in lockstep
	clock   int                 // Lamport-style hop clock; see Hops
	rec     *telemetry.Recorder // per-rank telemetry sink; nil = disabled (see telemetry.go)
	faults  *faultState         // per-rank fault injection; nil = disabled (see fault.go)
}

// Rank returns this process's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Hops returns this rank's hop clock: a Lamport-style event counter that
// increments on every send and every receive, and on a receive first catches
// up to the sender's clock. After a communication phase, the maximum of Hops
// over all ranks is the length of the phase's critical path measured in
// point-to-point operations — the latency the phase would exhibit with one
// processor per rank (a LogP-style round count), independent of how the host
// machine actually schedules the goroutines. A rank-0 funnel broadcast has
// hop depth O(P) (the root's P−1 sequential sends are all on the critical
// path); the binomial tree has depth O(log P). The comm benchmarks report
// this as "hops/op". Each communicator handle carries its own clock,
// starting at zero.
func (c *Comm) Hops() int { return c.clock }

// observe advances the hop clock past an incoming message's clock: one
// receive event that cannot precede the matching send.
func (c *Comm) observe(clk int) {
	if clk > c.clock {
		c.clock = clk
	}
	c.clock++
}

// recvMsg is the internal blocking receive used by Recv and the collectives:
// it takes the matching message and charges the receive to the hop clock.
func (c *Comm) recvMsg(src, tag int) message {
	m := c.state.boxes[c.rank].take(c, src, tag)
	c.observe(m.clock)
	return m
}

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return c.state.size }

// Name returns the communicator's diagnostic name (e.g. "world", "L3.2").
func (c *Comm) Name() string { return c.state.name }

// checkUserTag panics unless tag is in the user band [0, ReservedTagBase).
func checkUserTag(tag int) {
	if tag < 0 {
		panic(fmt.Sprintf("mpi: user tags must be >= 0, got %d", tag))
	}
	if tag >= ReservedTagBase {
		panic(fmt.Sprintf("mpi: tag %d is in the reserved band [%d, %d); use SendReserved/RecvReserved",
			tag, ReservedTagBase, ReservedTagBase+ReservedTagSpan))
	}
}

// checkSalt panics unless salt addresses a valid reserved tag.
func checkSalt(salt int) {
	if salt < 0 || salt >= ReservedTagSpan {
		panic(fmt.Sprintf("mpi: reserved tag salt %d out of range [0, %d)", salt, ReservedTagSpan))
	}
}

// Send delivers data to rank dst with the given tag. Tags must be in the
// user band [0, ReservedTagBase); the reserved band belongs to the coupling
// layer (SendReserved) and negative tags to the collectives. Send is eager
// and never blocks.
func (c *Comm) Send(dst, tag int, data any) {
	checkUserTag(tag)
	c.send(dst, tag, data)
}

// SendReserved delivers data on the reserved tag band used for
// library-internal coupling traffic. salt must be in [0, ReservedTagSpan);
// mci derives it from the interface identity so concurrent exchanges over
// different interfaces never collide with each other or with user tags.
func (c *Comm) SendReserved(dst, salt int, data any) {
	checkSalt(salt)
	c.send(dst, ReservedTagBase+salt, data)
}

func (c *Comm) send(dst, tag int, data any) {
	if dst < 0 || dst >= c.state.size {
		panic(fmt.Sprintf("mpi: Send to rank %d of communicator %q (size %d)", dst, c.state.name, c.state.size))
	}
	if c.rec != nil {
		c.rec.CountMessage(c.state.level, opForTag(tag), telemetry.PayloadBytes(data))
	}
	c.clock++
	m := message{src: c.rank, tag: tag, clock: c.clock, data: data}
	if f := c.faults; f != nil && f.interceptSend(c.state, dst, &m, tag) {
		return // dropped or held for delayed delivery
	}
	c.state.route(dst, m)
}

// Recv blocks until a message with the given source and tag arrives and
// returns its payload. Pass AnySource to match any sender.
func (c *Comm) Recv(src, tag int) any {
	checkUserTag(tag)
	return c.recvMsg(src, tag).data
}

// RecvReserved is Recv on the reserved tag band; it pairs with SendReserved.
func (c *Comm) RecvReserved(src, salt int) any {
	checkSalt(salt)
	return c.recvMsg(src, ReservedTagBase+salt).data
}

// Run launches size ranks, each executing body with its world communicator,
// and waits for all to finish. Panics are captured per rank and aggregated
// (errors.Join, ordered by rank) so a multi-rank failure reports every
// failing rank, not just the first drained. Note that a panicking rank may
// leave peers blocked; Run is intended for tests and in-process simulations
// where that aborts the whole program anyway.
func Run(size int, body func(world *Comm)) error {
	return RunHooked(size, body, nil)
}

// RunHooked is Run with an observability hook: onPanic, when non-nil, is
// invoked once per panicking rank (from that rank's goroutine, before Run
// aggregates the failures) with the rank number and the recovered value. The
// live monitor registers its flight recorder here so a rank crash dumps the
// black box — every rank's recent telemetry events and watchdog history —
// while the other ranks' recorders are still intact.
func RunHooked(size int, body func(world *Comm), onPanic func(rank int, recovered any)) error {
	return runRanks(size, body, onPanic, nil)
}

// runRanks is the shared runner behind Run, RunHooked and RunFaulty. A
// non-nil plan attaches per-rank fault-injection state to every world handle
// (propagated through Split); held delayed messages are flushed when a
// rank's body returns so no payload outlives the run.
func runRanks(size int, body func(world *Comm), onPanic func(rank int, recovered any), plan *FaultPlan) error {
	if size < 1 {
		return fmt.Errorf("mpi: Run needs size >= 1, got %d", size)
	}
	ws := newWorldState(nil, size, -1)
	state := ws.openComm(worldCommID, "world", identityMembers(size))
	rankErrs := make([]error, size) // slot per rank: no contention, stable order
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					rankErrs[rank] = panicError(rank, p)
					if onPanic != nil {
						onPanic(rank, p)
					}
				}
			}()
			world := &Comm{state: state, rank: rank}
			if plan != nil {
				world.faults = &faultState{plan: plan, rank: rank}
				defer world.faults.flushAll()
			}
			body(world)
		}(r)
	}
	wg.Wait()
	// Tear the world down so nothing references the mailboxes after the
	// run.
	ws.closeAll(errWorldClosed)
	return errors.Join(rankErrs...)
}

// panicError is the error a rank's recovered panic becomes. Error panic
// values are wrapped, not flattened, so callers can classify the failure
// (errors.As on *WorldLostError distinguishes a dead peer from a local fault).
func panicError(rank int, p any) error {
	if perr, ok := p.(error); ok {
		return fmt.Errorf("mpi: rank %d panicked: %w", rank, perr)
	}
	return fmt.Errorf("mpi: rank %d panicked: %v", rank, p)
}
