// Package insitu is the live observation pipeline of the paper's headline
// workflow: watching thrombus formation *while* the coupled job runs. NεκTαrG
// staged continuum fields, DPD particles and interface geometry from the
// compute partition to a visualization cluster through dedicated MCI task
// groups (the vis-node pattern of the companion aneurysm paper,
// arXiv:1110.3092); this package reproduces that path in-process:
//
//	solver ranks ──publish──▶ bounded queue ──────────▶ observer
//	 (non-blocking,           (explicit drop policy,     (frame
//	  every stride             published == delivered     assembly,
//	  exchanges)               + dropped, exactly)        VTK, HTTP)
//
// The contract that makes it safe to bolt onto a production run:
//
//   - Publishing NEVER blocks. A slow or wedged observer cannot stall a
//     solver rank; each snapshot piece is either delivered or counted as
//     dropped, and the conservation law published == delivered + dropped
//     holds exactly once the pipeline quiesces (pinned by test under -race).
//   - Frames are causally consistent: the observer only assembles pieces
//     carrying the same step index into one frame; a frame never mixes steps.
//   - Staleness is explicit: the observer exports how many steps the latest
//     assembled frame trails the newest published piece.
//   - Disabled means nil, as everywhere else in this codebase: a metasolver
//     without a publisher pays one nil comparison per exchange and zero
//     allocations (pinned by TestInsituDisabledZeroCost in the verify gate).
//
// Every run, single-process or one rank of a TCP world, publishes into the
// in-process bounded Queue its own observer drains.
package insitu

import (
	"errors"
	"fmt"
	"sync"

	"nektarg/internal/geometry"
)

// Kind labels what a snapshot piece carries.
type Kind uint8

// Piece kinds.
const (
	KindContinuum Kind = iota
	KindParticles
	KindInterface
)

// String returns the kind's display name.
func (k Kind) String() string {
	switch k {
	case KindContinuum:
		return "continuum"
	case KindParticles:
		return "particles"
	case KindInterface:
		return "interface"
	default:
		return "?"
	}
}

// ContinuumSlab is a downsampled structured velocity/pressure block: the
// solver grid decimated by the publisher's GridStride, coordinates in the
// solver's local frame with the patch origin carried alongside. Fields are
// indexed (k*ny + j)*nx + i, matching viz.WriteStructuredSlab.
type ContinuumSlab struct {
	X, Y, Z     []float64 // decimated 1-D node coordinates
	U, V, W, Pr []float64
	Origin      geometry.Vec3
}

// ParticleCloud is a particle subsample in global continuum coordinates.
// Total records the full population before subsampling so observers can
// report the true count next to the decimated cloud.
type ParticleCloud struct {
	Total    int
	Pos, Vel []geometry.Vec3
	Species  []int
}

// SurfacePatch is one coupling interface triangulation ΓI in global
// coordinates.
type SurfacePatch struct {
	Name string
	Tris []geometry.Triangle
}

// Piece is one snapshot fragment published by a solver rank: exactly one of
// the payload pointers is set, per Kind. Step is the exchange index the piece
// was captured at, Time the solver time.
type Piece struct {
	Kind   Kind
	Source string // "patch:<name>", "dpd:<name>", "iface:<region>/<surface>"
	Step   int
	Time   float64

	Continuum *ContinuumSlab
	Particles *ParticleCloud
	Surface   *SurfacePatch
}

// TelemetryBytes implements telemetry.Sizer: the wire size of the payload
// arrays, which is what the byte counters account.
func (p *Piece) TelemetryBytes() int64 {
	if p == nil {
		return 0
	}
	var b int64 = 64 // header fields
	if c := p.Continuum; c != nil {
		b += 8 * int64(len(c.X)+len(c.Y)+len(c.Z)+len(c.U)+len(c.V)+len(c.W)+len(c.Pr))
	}
	if pc := p.Particles; pc != nil {
		b += 24*int64(len(pc.Pos)+len(pc.Vel)) + 8*int64(len(pc.Species))
	}
	if s := p.Surface; s != nil {
		b += 72 * int64(len(s.Tris))
	}
	return b
}

// DropPolicy selects what a full queue discards.
type DropPolicy uint8

const (
	// DropOldest evicts the oldest unconsumed piece to admit the incoming
	// one — latest-wins streaming, the default for live observation: the
	// observer always converges on the newest state and staleness stays
	// bounded by the queue depth even under a stalled consumer.
	DropOldest DropPolicy = iota
	// DropNewest discards the incoming piece when the queue is full,
	// preserving the oldest backlog — archival mode, where a contiguous
	// prefix of the run matters more than the newest frame.
	DropNewest
)

// String returns the policy's display name.
func (d DropPolicy) String() string {
	switch d {
	case DropOldest:
		return "drop-oldest"
	case DropNewest:
		return "drop-newest"
	default:
		return "?"
	}
}

// ErrBadPolicy tags ParsePolicy failures so config validation can branch on
// the cause without string matching.
var ErrBadPolicy = errors.New("insitu: unknown drop policy")

// ParsePolicy maps a config string to a DropPolicy.
func ParsePolicy(s string) (DropPolicy, error) {
	switch s {
	case "", "drop-oldest":
		return DropOldest, nil
	case "drop-newest":
		return DropNewest, nil
	default:
		return 0, fmt.Errorf("%w %q (want drop-oldest|drop-newest)", ErrBadPolicy, s)
	}
}

// Stats is the queue's drop accounting. The conservation law is
// Published == Delivered + Dropped + Queued at every instant, collapsing to
// Published == Delivered + Dropped once the pipeline quiesces (queue drained
// and closed).
type Stats struct {
	Published int64 `json:"published"`
	Delivered int64 `json:"delivered"`
	Dropped   int64 `json:"dropped"`
	Queued    int64 `json:"queued"`   // pieces accepted but not yet consumed
	Bytes     int64 `json:"bytes"`    // payload bytes published
	MaxStep   int   `json:"max_step"` // newest step seen by a publish
	DropBytes int64 `json:"drop_bytes"`
}

// Queue is the in-process transport: a bounded MPSC piece buffer with an
// explicit drop policy. Publish never blocks; Take blocks until a piece
// arrives or the queue is closed. All counters are maintained under one lock
// so the conservation law is exact at every observable instant.
type Queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []*Piece // FIFO; eviction pops the front
	cap    int
	policy DropPolicy
	closed bool
	st     Stats
}

// DefaultQueueCap bounds the in-flight piece backlog. Sized for a few full
// frames of a multi-patch scene: with a stalled observer the memory high-water
// mark is cap × piece size, and with DropOldest the staleness high-water mark
// is cap pieces.
const DefaultQueueCap = 64

// NewQueue creates a bounded queue (capacity < 1 takes DefaultQueueCap).
func NewQueue(capacity int, policy DropPolicy) *Queue {
	if capacity < 1 {
		capacity = DefaultQueueCap
	}
	q := &Queue{cap: capacity, policy: policy, buf: make([]*Piece, 0, capacity)}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Publish offers a piece without ever blocking. It reports whether the piece
// was accepted; a false return means it (DropNewest) or an evicted older
// piece (DropOldest) was counted as dropped. Publishing to a closed queue
// counts as a drop: the observer is gone, the solver must not care.
func (q *Queue) Publish(p *Piece) bool {
	q.mu.Lock()
	q.st.Published++
	q.st.Bytes += p.TelemetryBytes()
	if p.Step > q.st.MaxStep {
		q.st.MaxStep = p.Step
	}
	if q.closed {
		q.st.Dropped++
		q.st.DropBytes += p.TelemetryBytes()
		q.mu.Unlock()
		return false
	}
	accepted := true
	if len(q.buf) >= q.cap {
		switch q.policy {
		case DropNewest:
			q.st.Dropped++
			q.st.DropBytes += p.TelemetryBytes()
			accepted = false
		default: // DropOldest
			old := q.buf[0]
			copy(q.buf, q.buf[1:])
			q.buf = q.buf[:len(q.buf)-1]
			q.st.Dropped++
			q.st.DropBytes += old.TelemetryBytes()
		}
	}
	if accepted {
		q.buf = append(q.buf, p)
		q.st.Queued = int64(len(q.buf))
		q.mu.Unlock()
		q.cond.Broadcast()
		return true
	}
	q.st.Queued = int64(len(q.buf))
	q.mu.Unlock()
	return false
}

// Take removes the oldest piece, blocking until one arrives. It returns
// ok = false once the queue is closed AND drained — the observer's loop
// condition.
func (q *Queue) Take() (*Piece, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.buf) == 0 {
		if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
	p := q.buf[0]
	copy(q.buf, q.buf[1:])
	q.buf = q.buf[:len(q.buf)-1]
	q.st.Delivered++
	q.st.Queued = int64(len(q.buf))
	return p, true
}

// Close marks the queue closed: Publishers' pieces are counted as dropped
// from now on, and Take returns ok = false once the backlog drains.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Stats returns a copy of the queue's accounting.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := q.st
	st.Queued = int64(len(q.buf))
	return st
}

// MaxStep returns the newest step index any publish has carried — the
// staleness reference.
func (q *Queue) MaxStep() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.st.MaxStep
}
