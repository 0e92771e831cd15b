package mpi

// Pluggable rank transport. The paper couples heterogeneous solvers across
// separate machines (Cray XT5 + BlueGene/P joined over a network, §4); this
// file is the seam that lets a World span OS processes and hosts while the
// in-process mailbox world stays the default and the test harness.
//
// The contract is deliberately narrow: a Transport moves opaque Envelopes
// between world ranks and reports peer loss. Everything MPI-like — tag
// matching, per-(src, dst, tag) FIFO, reserved bands, the Lamport hop clock,
// telemetry counting at the sender, and the fault-injection choke point —
// lives above the seam in Comm.send / mailbox, so both transports share one
// semantics by construction. The conformance suite in tcptransport pins this
// by running the same test bodies over both.
//
// Ordering: a Transport must deliver envelopes for a given (sender, receiver)
// pair in the order they were sent (a single framed stream per peer pair
// suffices). The mailbox preserves arrival order per (src, tag), so the MPI
// non-overtaking guarantee composes across the wire.
//
// Communicators over the wire: a communicator is identified by a wire id
// that every member derives deterministically (the world is "w"; a Split
// child is parent-id + the parent's lockstep collective sequence number +
// color). Envelopes carry the wire id and the receiver's rank within that
// communicator, so a process can route an incoming payload to the right
// mailbox even before its own rank has opened the communicator.

import (
	"encoding/gob"
	"errors"
	"fmt"
	"sync"

	"nektarg/internal/telemetry"
)

// worldCommID is the wire id of the World communicator.
const worldCommID = "w"

// Envelope is the wire form of one point-to-point message. Src and Dst are
// ranks within the communicator named by Comm (not world ranks); Clock is the
// sender's hop clock at the send. Payload types crossing a process boundary
// must be gob-registered (RegisterPayload); the runtime's internal payloads
// and the common solver slice types are pre-registered.
type Envelope struct {
	Comm  string
	Src   int
	Dst   int
	Tag   int
	Clock int
	Data  any
}

// Transport moves envelopes between the ranks of one World.
type Transport interface {
	// Self is the local world rank.
	Self() int
	// Size is the world size.
	Size() int
	// Start begins delivery: deliver is invoked (possibly concurrently) for
	// every incoming envelope; lost is invoked when a peer disappears without
	// a graceful close — the runtime treats that as a world-fatal fault.
	Start(deliver func(Envelope), lost func(peer int, err error)) error
	// Send transmits env to the given world rank. It must preserve send
	// order per destination.
	Send(worldDst int, env Envelope) error
	// Close tears the transport down. graceful announces a clean finish
	// (peers seeing the stream end afterwards must not report a lost peer);
	// graceful=false aborts, and peers unwind with a lost-peer fault.
	Close(graceful bool) error
}

// RegisterPayload registers a payload type for transmission across process
// boundaries (gob). In-process worlds never serialize and do not need it.
func RegisterPayload(v any) { gob.Register(v) }

func init() {
	// Runtime-internal payloads that cross the wire inside collectives.
	gob.Register(gatherBundle{})
	gob.Register(scatterBundle{})
	gob.Register(splitRequest{})
	gob.Register(splitAssign{})
	gob.Register([]*telemetry.ClusterStats{}) // ReduceTelemetry partial aggregates
	// Common solver payload shapes.
	gob.Register([]float64{})
	gob.Register([]int{})
	gob.Register([]byte{})
	gob.Register([]string{})
	gob.Register([]any{})
}

// WorldLostError is the panic value raised by operations on a communicator
// whose world has been torn down — a peer process died without a graceful
// close, the transport failed, or the world already finished. Blocked
// receives unwind with it instead of hanging forever, which is what lets a
// distributed supervisor (core.RunDistributed) observe the fault and restart.
type WorldLostError struct{ Cause error }

func (e *WorldLostError) Error() string { return fmt.Sprintf("mpi: world lost: %v", e.Cause) }
func (e *WorldLostError) Unwrap() error { return e.Cause }

// errWorldClosed is the benign teardown cause used when a world body returns.
var errWorldClosed = errors.New("world closed")

// inboxKey addresses one rank's mailbox within one communicator.
type inboxKey struct {
	comm string
	rank int
}

// worldState is the per-process view of one World: the transport (nil for
// the in-process world, where every rank is local), the open communicators
// keyed by wire id, and the local mailboxes keyed by (comm, rank) — kept
// separately from the communicators so an envelope can be buffered for a
// communicator the local rank has not opened yet.
type worldState struct {
	tr   Transport
	self int // local world rank when tr != nil; unused in-process
	size int

	mu      sync.Mutex
	comms   map[string]*commState
	inboxes map[inboxKey]*mailbox
	lost    error // first teardown cause; once set, all inboxes are closed
}

func newWorldState(tr Transport, size, self int) *worldState {
	return &worldState{
		tr:      tr,
		self:    self,
		size:    size,
		comms:   map[string]*commState{},
		inboxes: map[inboxKey]*mailbox{},
	}
}

// isLocal reports whether a world rank runs in this process.
func (ws *worldState) isLocal(worldRank int) bool {
	return ws.tr == nil || worldRank == ws.self
}

// inboxLocked returns (creating if needed) the mailbox for (comm, rank).
// Mailboxes created after teardown are born closed. Callers hold ws.mu.
func (ws *worldState) inboxLocked(comm string, rank int) *mailbox {
	k := inboxKey{comm: comm, rank: rank}
	mb, ok := ws.inboxes[k]
	if !ok {
		mb = newMailbox()
		if ws.lost != nil {
			mb.close(ws.lost)
		}
		ws.inboxes[k] = mb
	}
	return mb
}

// openComm returns (creating if needed) the communicator with the given wire
// id. All member ranks derive identical (id, name, members) deterministically,
// so whichever local rank arrives first creates the shared state.
func (ws *worldState) openComm(id, name string, members []int) *commState {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if st, ok := ws.comms[id]; ok {
		return st
	}
	st := &commState{
		id:      id,
		size:    len(members),
		name:    name,
		level:   levelFromName(name),
		members: members,
		world:   ws,
		boxes:   make([]*mailbox, len(members)),
	}
	for r, wr := range members {
		if ws.isLocal(wr) {
			st.boxes[r] = ws.inboxLocked(id, r)
		}
	}
	ws.comms[id] = st
	return st
}

// deliver routes one incoming envelope to its mailbox. Invoked by transport
// reader goroutines, possibly concurrently.
func (ws *worldState) deliver(env Envelope) {
	ws.mu.Lock()
	box := ws.inboxLocked(env.Comm, env.Dst)
	ws.mu.Unlock()
	box.put(message{src: env.Src, tag: env.Tag, clock: env.Clock, data: env.Data})
}

// peerLost tears the world down when a peer process dies without a graceful
// close: every local mailbox closes and blocked operations unwind with a
// WorldLostError naming the peer.
func (ws *worldState) peerLost(peer int, err error) {
	ws.closeAll(fmt.Errorf("peer world rank %d lost: %w", peer, err))
}

// closeAll closes every local mailbox with the given cause (first cause
// wins). Blocked receives unwind; later sends and receives panic.
func (ws *worldState) closeAll(cause error) {
	ws.mu.Lock()
	if ws.lost != nil {
		ws.mu.Unlock()
		return
	}
	ws.lost = cause
	boxes := make([]*mailbox, 0, len(ws.inboxes))
	for _, mb := range ws.inboxes {
		boxes = append(boxes, mb)
	}
	ws.mu.Unlock()
	for _, mb := range boxes {
		mb.close(cause)
	}
}

// identityMembers maps communicator ranks to world ranks for the World
// communicator itself.
func identityMembers(size int) []int {
	m := make([]int, size)
	for i := range m {
		m[i] = i
	}
	return m
}

// commState is the shared part of a communicator: its wire identity, the
// comm-rank → world-rank mapping, and one mailbox per local rank (remote
// ranks have a nil slot — their mail is routed over the transport).
type commState struct {
	id      string
	size    int
	name    string
	level   telemetry.Level // MCI level derived from the name; see levelFromName
	members []int           // comm rank -> world rank
	world   *worldState
	boxes   []*mailbox // comm rank -> local mailbox, nil when remote
}

// route hands m to the communicator rank dst: straight into the mailbox when
// dst is local, over the transport otherwise. This is the only place a
// message crosses the local/remote boundary, so everything above it (tag
// checks, telemetry, hop clock, fault interception) is transport-agnostic.
func (s *commState) route(dst int, m message) {
	if box := s.boxes[dst]; box != nil {
		box.put(m)
		return
	}
	env := Envelope{Comm: s.id, Src: m.src, Dst: dst, Tag: m.tag, Clock: m.clock, Data: m.data}
	if err := s.world.tr.Send(s.members[dst], env); err != nil {
		panic(&WorldLostError{Cause: fmt.Errorf("send to %s rank %d (world rank %d): %w",
			s.name, dst, s.members[dst], err)})
	}
}

// RunOn executes one rank of a distributed World over the given transport:
// the body runs on the calling goroutine with a world communicator whose
// peers live wherever the transport says they do. RunOn owns the transport —
// it starts delivery before the body and closes it afterwards (gracefully on
// a clean return, abortively on a panic so peers unwind rather than hang). A
// body panic — including a WorldLostError from a dead peer — is recovered
// and returned as an error, mirroring Run's per-rank envelopes.
func RunOn(tr Transport, body func(world *Comm)) error {
	return runOn(tr, nil, body, nil)
}

// RunOnFaulty is RunOn with deterministic fault injection (see RunFaulty) and
// an optional per-rank panic hook. The fault schedule keys on the transport's
// world rank, so a plan replayed over N processes injects exactly the faults
// the same plan injects in-process — the conformance tests assert this.
func RunOnFaulty(tr Transport, plan FaultPlan, body func(world *Comm), onPanic func(rank int, recovered any)) error {
	return runOn(tr, &plan, body, onPanic)
}

func runOn(tr Transport, plan *FaultPlan, body func(world *Comm), onPanic func(rank int, recovered any)) (err error) {
	if tr == nil {
		return errors.New("mpi: RunOn needs a transport")
	}
	size, self := tr.Size(), tr.Self()
	if size < 1 || self < 0 || self >= size {
		return fmt.Errorf("mpi: RunOn rank %d out of range for world size %d", self, size)
	}
	ws := newWorldState(tr, size, self)
	st := ws.openComm(worldCommID, "world", identityMembers(size))
	if err := tr.Start(ws.deliver, ws.peerLost); err != nil {
		return fmt.Errorf("mpi: transport start: %w", err)
	}
	world := &Comm{state: st, rank: self}
	if plan != nil {
		world.faults = &faultState{plan: plan, rank: self}
	}
	defer func() {
		p := recover()
		if world.faults != nil {
			// Flush held delayed messages like the in-process runner does;
			// tolerate failures when the world is already down.
			func() {
				defer func() { _ = recover() }()
				world.faults.flushAll()
			}()
		}
		ws.closeAll(errWorldClosed)
		if cerr := tr.Close(p == nil); cerr != nil && err == nil && p == nil {
			err = fmt.Errorf("mpi: transport close: %w", cerr)
		}
		if p != nil {
			err = panicError(self, p)
			if onPanic != nil {
				onPanic(self, p)
			}
		}
	}()
	body(world)
	return nil
}
