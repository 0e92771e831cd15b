package mpi

// Scalable collective algorithms. The seed implementation funneled every
// collective through rank 0 — O(P) serialized latency at the root, the exact
// anti-pattern the paper's L2/L3/L4 hierarchy exists to avoid (§3.1, Fig. 4).
// This file implements the standard scalable topologies instead:
//
//   - binomial trees for the rooted collectives (Bcast, Gather, Scatter),
//     giving O(log P) latency depth for any root via virtual rank
//     renumbering vr = (rank − root + P) mod P;
//   - recursive doubling for Allreduce (largest power of two P' ≤ P does the
//     hypercube exchange; the P − P' remainder ranks fold their vectors into
//     partners beforehand and receive the result afterwards);
//   - a dissemination barrier (ceil(log2 P) rounds at distances 1, 2, 4, …,
//     correct for arbitrary P);
//   - Split composed from tree Gather + tree Scatter.
//
// All algorithms preserve the package's blocking semantics, the (color, key)
// split ordering, and the per-(src, dst, tag) FIFO guarantee: within one
// collective every (src, dst) pair exchanges at most a handful of messages on
// a tag unique to that collective invocation (collTag), so reordering across
// rounds is impossible.
//
// Payload ownership: collectives that replicate one logical payload across
// ranks (Bcast, Allreduce, Scatter) hand every rank an independent buffer —
// slice payloads are copied with clonePayload on each hop — so callers may
// mutate results freely; `go test -race` enforces this.

import (
	"fmt"
	"reflect"
	"sort"

	"nektarg/internal/telemetry"
)

// Collective op codes folded into reserved (negative) tags.
const (
	opBarrier = iota + 1
	opBcast
	opGather
	opScatter
	opAllreduce
)

// collTag reserves a distinct negative tag for the seq-th collective of a
// given kind. Every rank of a communicator must invoke collectives in the
// same order, which keeps the per-rank sequence numbers in lockstep. The
// multiplier must exceed the largest op code so (seq, op) pairs never
// collide.
func (c *Comm) collTag(op int) int {
	c.collSeq++
	return -(c.collSeq*16 + op)
}

// checkRoot validates a collective's root rank.
func (c *Comm) checkRoot(root int) {
	if root < 0 || root >= c.state.size {
		panic(fmt.Sprintf("mpi: root %d out of range for communicator %q (size %d)",
			root, c.state.name, c.state.size))
	}
}

// clonePayload returns an independent copy of slice payloads: a fresh
// backing array with a shallow copy of the elements. Non-slice payloads
// (scalars, strings, structs) are returned unchanged — they are copied by
// value on delivery anyway. This is what lets collectives hand each rank a
// buffer it may mutate without racing its peers. The common solver payload
// types are special-cased to skip reflection on the collectives' hot path.
func clonePayload(data any) any {
	switch v := data.(type) {
	case []float64:
		if v == nil {
			return data
		}
		return append(make([]float64, 0, len(v)), v...)
	case []int:
		if v == nil {
			return data
		}
		return append(make([]int, 0, len(v)), v...)
	case []byte:
		if v == nil {
			return data
		}
		return append(make([]byte, 0, len(v)), v...)
	}
	v := reflect.ValueOf(data)
	if !v.IsValid() || v.Kind() != reflect.Slice || v.IsNil() {
		return data
	}
	out := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
	reflect.Copy(out, v)
	return out.Interface()
}

// Barrier blocks until every rank of the communicator has entered it.
// Dissemination algorithm: in round k each rank signals (rank + 2^k) mod P
// and waits for (rank − 2^k) mod P; after ceil(log2 P) rounds every rank has
// transitively heard from all P−1 peers, for any P.
func (c *Comm) Barrier() {
	tag := c.collTag(opBarrier)
	size := c.state.size
	for d := 1; d < size; d <<= 1 {
		c.send((c.rank+d)%size, tag, nil)
		c.recvMsg((c.rank-d+size)%size, tag)
	}
}

// Bcast distributes root's data to every rank and returns it. Non-root
// callers pass nil (their argument is ignored). Binomial tree: each rank
// receives once from its tree parent and forwards independent copies to at
// most log2 P children, so receivers own their buffers.
func (c *Comm) Bcast(root int, data any) any {
	tag := c.collTag(opBcast)
	size := c.state.size
	c.checkRoot(root)
	if size == 1 {
		return data
	}
	vr := (c.rank - root + size) % size
	mask := 1
	for mask < size {
		if vr&mask != 0 {
			parent := (c.rank - mask + size) % size
			data = c.recvMsg(parent, tag).data
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vr+mask < size {
			c.send((c.rank+mask)%size, tag, clonePayload(data))
		}
	}
	return data
}

// gatherEntry carries one rank's contribution up the gather tree. Fields are
// exported so bundles gob-encode when a gather hop crosses a process
// boundary (the type itself stays package-internal).
type gatherEntry struct {
	Rank int
	Data any
}

// gatherBundle is the payload of one gather-tree hop: a rank's accumulated
// subtree entries. It reports its wire size to the telemetry layer as one
// rank word (8 bytes) plus the payload size per entry, so tree gathers are
// accounted by actual relayed volume.
type gatherBundle []gatherEntry

// TelemetryBytes implements telemetry.Sizer.
func (b gatherBundle) TelemetryBytes() int64 {
	var n int64
	for _, e := range b {
		n += 8 + telemetry.PayloadBytes(e.Data)
	}
	return n
}

// scatterBundle is the payload of one scatter-tree hop: the parts destined
// for a child's subtree, sized as the sum of the parts.
type scatterBundle []any

// TelemetryBytes implements telemetry.Sizer.
func (b scatterBundle) TelemetryBytes() int64 {
	var n int64
	for _, p := range b {
		n += telemetry.PayloadBytes(p)
	}
	return n
}

// Gather collects one payload from every rank at root, ordered by rank.
// Non-root callers receive nil. Binomial tree: each rank accumulates its
// subtree's entries and forwards them to its parent in one message, so the
// root merges log2 P bundles instead of P−1 point-to-point messages.
func (c *Comm) Gather(root int, data any) []any {
	tag := c.collTag(opGather)
	size := c.state.size
	c.checkRoot(root)
	vr := (c.rank - root + size) % size
	entries := gatherBundle{{Rank: c.rank, Data: data}}
	for mask := 1; mask < size; mask <<= 1 {
		if vr&mask != 0 {
			c.send((c.rank-mask+size)%size, tag, entries)
			return nil
		}
		if vr+mask < size {
			child := (c.rank + mask) % size
			got := c.recvMsg(child, tag).data.(gatherBundle)
			entries = append(entries, got...)
		}
	}
	out := make([]any, size)
	for _, e := range entries {
		out[e.Rank] = e.Data
	}
	return out
}

// Scatter distributes parts[i] from root to rank i and returns this rank's
// part. Non-root callers pass nil. Binomial tree: the root peels off the
// bundle destined for each child's subtree; every slice part is copied, so
// receivers (including the root itself) own independent buffers even when
// the caller built parts as sub-slices of one backing array.
func (c *Comm) Scatter(root int, parts []any) any {
	tag := c.collTag(opScatter)
	size := c.state.size
	c.checkRoot(root)
	vr := (c.rank - root + size) % size
	var bundle scatterBundle // payloads for virtual ranks [vr, vr+len(bundle))
	mask := 1
	if c.rank == root {
		if len(parts) != size {
			panic(fmt.Sprintf("mpi: Scatter needs %d parts, got %d", size, len(parts)))
		}
		bundle = make(scatterBundle, size)
		for v := 0; v < size; v++ {
			bundle[v] = clonePayload(parts[(root+v)%size])
		}
		for mask < size {
			mask <<= 1
		}
	} else {
		for vr&mask == 0 {
			mask <<= 1
		}
		parent := (c.rank - mask + size) % size
		bundle = c.recvMsg(parent, tag).data.(scatterBundle)
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vr+mask < size {
			// The child at virtual rank vr+mask serves [vr+mask, vr+2·mask).
			sub := append(scatterBundle(nil), bundle[mask:]...)
			c.send((c.rank+mask)%size, tag, sub)
			bundle = bundle[:mask]
		}
	}
	return bundle[0]
}

// ReduceOp combines two float64 values; it must be associative and
// commutative (tree and recursive-doubling reductions reassociate freely).
type ReduceOp func(a, b float64) float64

// Standard float64 reduction operators.
var (
	Sum ReduceOp = func(a, b float64) float64 { return a + b }
	Max ReduceOp = func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	}
	Min ReduceOp = func(a, b float64) float64 {
		if a < b {
			return a
		}
		return b
	}
)

// IntReduceOp combines two ints; it must be associative and commutative.
type IntReduceOp func(a, b int) int

// Standard integer reduction operators. Integer reductions are exact — use
// them for rank bookkeeping (e.g. mci root discovery) where routing an int
// through float64 would silently lose precision beyond 2^53.
var (
	SumInt IntReduceOp = func(a, b int) int { return a + b }
	MaxInt IntReduceOp = func(a, b int) int {
		if a > b {
			return a
		}
		return b
	}
	MinInt IntReduceOp = func(a, b int) int {
		if a < b {
			return a
		}
		return b
	}
)

// allreduceRD is recursive-doubling allreduce over element type T. For
// non-power-of-two sizes the trailing size−P' ranks first fold their vectors
// into partners below P', wait out the hypercube rounds, and receive the
// finished vector afterwards. Every rank ends up with a buffer no other rank
// references.
func allreduceRD[T any](c *Comm, tag int, local []T, op func(a, b T) T) []T {
	size := c.state.size
	acc := append([]T(nil), local...)
	if size == 1 {
		return acc
	}
	p2 := 1
	for p2*2 <= size {
		p2 *= 2
	}
	rem := size - p2
	rank := c.rank
	if rank >= p2 {
		// Fold into the partner, then receive the finished result.
		c.send(rank-p2, tag, acc)
		return c.recvMsg(rank-p2, tag).data.([]T)
	}
	if rank < rem {
		v := c.recvMsg(rank+p2, tag).data.([]T)
		foldInto(acc, v, op)
	}
	for mask := 1; mask < p2; mask <<= 1 {
		partner := rank ^ mask
		// Both sides only read the exchanged buffers and write into fresh
		// ones, so the eager hand-off is race-free without extra copies.
		c.send(partner, tag, acc)
		v := c.recvMsg(partner, tag).data.([]T)
		if len(v) != len(acc) {
			panic(fmt.Sprintf("mpi: Allreduce length mismatch: %d vs %d", len(v), len(acc)))
		}
		next := make([]T, len(acc))
		for i := range next {
			next[i] = op(acc[i], v[i])
		}
		acc = next
	}
	if rank < rem {
		// Hand the extra rank its own copy of the result.
		c.send(rank+p2, tag, append([]T(nil), acc...))
	}
	return acc
}

// foldInto accumulates v into acc element-wise.
func foldInto[T any](acc, v []T, op func(a, b T) T) {
	if len(v) != len(acc) {
		panic(fmt.Sprintf("mpi: reduction length mismatch: %d vs %d", len(v), len(acc)))
	}
	for i := range acc {
		acc[i] = op(acc[i], v[i])
	}
}

// Allreduce element-wise combines equal-length float64 vectors from all
// ranks and returns the reduced vector on every rank. Recursive doubling:
// O(log P) latency, and — because every rank applies the same combination
// tree with a commutative op — bitwise-identical results on all ranks.
func (c *Comm) Allreduce(local []float64, op ReduceOp) []float64 {
	return allreduceRD(c, c.collTag(opAllreduce), local, op)
}

// AllreduceInt is Allreduce over int vectors. It exists so integer identity
// data (ranks, counts, ids) never transits float64.
func (c *Comm) AllreduceInt(local []int, op IntReduceOp) []int {
	return allreduceRD(c, c.collTag(opAllreduce), local, op)
}

// splitRequest is each rank's (color, key) contribution to Split. Exported
// fields so the gather bundle carrying it gob-encodes across processes.
type splitRequest struct {
	Rank, Color, Key int
}

// splitAssign carries a rank's new communicator assignment: its rank in the
// child, the group's color, and the group's members as parent-comm ranks in
// child-rank order. It is plain data (no shared pointers) so Split works
// identically whether the parent communicator spans goroutines or processes;
// each rank materializes the shared child state locally from it. Rank < 0
// means no assignment (negative color).
type splitAssign struct {
	Rank    int
	Color   int
	Members []int
}

// Split partitions the communicator by color, ordering ranks within each new
// communicator by (key, old rank), exactly like MPI_Comm_split. Every rank
// must call it; a rank passing a negative color receives nil (MPI_UNDEFINED).
// Implemented as a tree Gather of requests to rank 0 — which computes the
// partition once — followed by a tree Scatter of the assignments; both legs
// are O(log P) deep. The child's wire identity is derived deterministically
// from the parent's id, the (lockstep) collective sequence number of this
// Split, and the color, so every member — in any process — opens the same
// communicator without further coordination.
func (c *Comm) Split(color, key int, name string) *Comm {
	size := c.state.size
	seq := c.collSeq // pre-Gather, identical on every rank (lockstep)
	reqs := c.Gather(0, splitRequest{Rank: c.rank, Color: color, Key: key})
	var parts []any
	if c.rank == 0 {
		groups := map[int][]splitRequest{}
		for _, raw := range reqs {
			r := raw.(splitRequest)
			if r.Color >= 0 {
				groups[r.Color] = append(groups[r.Color], r)
			}
		}
		assigns := make([]splitAssign, size)
		for i := range assigns {
			assigns[i] = splitAssign{Rank: -1}
		}
		colors := make([]int, 0, len(groups))
		for col := range groups {
			colors = append(colors, col)
		}
		sort.Ints(colors)
		for _, col := range colors {
			g := groups[col]
			sort.Slice(g, func(a, b int) bool {
				if g[a].Key != g[b].Key {
					return g[a].Key < g[b].Key
				}
				return g[a].Rank < g[b].Rank
			})
			members := make([]int, len(g))
			for newRank, r := range g {
				members[newRank] = r.Rank
			}
			for newRank, r := range g {
				assigns[r.Rank] = splitAssign{Rank: newRank, Color: col, Members: members}
			}
		}
		parts = make([]any, size)
		for i := range assigns {
			parts[i] = assigns[i]
		}
	}
	a := c.Scatter(0, parts).(splitAssign)
	if a.Rank < 0 {
		return nil
	}
	id := fmt.Sprintf("%s|%d.%d", c.state.id, seq, a.Color)
	childName := fmt.Sprintf("%s/%s.%d", c.state.name, name, a.Color)
	members := make([]int, len(a.Members))
	for i, pr := range a.Members {
		members[i] = c.state.members[pr]
	}
	st := c.state.world.openComm(id, childName, members)
	// Derived communicators inherit the parent's telemetry recorder and
	// fault-injection state (same rank, same track) so traffic on the whole
	// L2/L3/L4 tree is accounted — and faulted.
	return &Comm{state: st, rank: a.Rank, rec: c.rec, faults: c.faults}
}
