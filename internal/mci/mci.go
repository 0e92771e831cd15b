// Package mci implements the Multilevel Communicating Interface of §3.1: the
// hierarchical decomposition of the World communicator into
//
//	L2 — topology-oriented groups (one per rack / torus region),
//	L3 — task-oriented groups (one per solver instance: a NεκTαr-3D patch,
//	     the 1D solver, or a DPD-LAMMPS domain),
//	L4 — interface groups (the ranks whose mesh partitions touch a given
//	     inlet/outlet/coupling interface), derived from L3,
//
// plus the three-step inter-patch exchange of Figure 4 (gather on the L4
// root, root-to-root transfer over World, scatter to the peer L4 members) and
// the replica master/slave collectives of Figure 6 used by ensemble DPD runs.
package mci

import (
	"fmt"

	"nektarg/internal/audit"
	"nektarg/internal/mpi"
	"nektarg/internal/topology"
)

// TaskSpec names one solver instance and the number of ranks it gets.
type TaskSpec struct {
	Name  string
	Ranks int
}

// Config describes how the World communicator is decomposed.
type Config struct {
	// Torus, when non-nil, drives the topology-oriented L2 splitting: the
	// torus Z-extent is carved into L2Groups contiguous slabs, grouping
	// ranks on nearby nodes ("processors from different computers or racks
	// are grouped into L2 sub-communicators"). When nil the network is
	// homogeneous and L2 equals World, as the paper prescribes.
	Torus    *topology.Torus
	L2Groups int

	// Tasks assigns contiguous World rank ranges to solver instances, in
	// order. The totals must not exceed the World size; leftover ranks
	// stay idle (L3 == nil).
	Tasks []TaskSpec
}

// Hierarchy is one rank's view of the communicator tree.
type Hierarchy struct {
	World *mpi.Comm
	L2    *mpi.Comm
	L3    *mpi.Comm // nil for idle ranks
	Task  int       // task index, -1 when idle
	Name  string    // task name, "" when idle

	// worldRankOfL3Root[t] maps each task to the World rank of its L3 root
	// so L3 roots can find each other for coupling handshakes.
	l3Roots []int
}

// Build performs the L2 and L3 splits. It must be called collectively by
// every rank of world.
func Build(world *mpi.Comm, cfg Config) (*Hierarchy, error) {
	total := 0
	for _, t := range cfg.Tasks {
		if t.Ranks <= 0 {
			return nil, fmt.Errorf("mci: task %q needs > 0 ranks", t.Name)
		}
		total += t.Ranks
	}
	if total > world.Size() {
		return nil, fmt.Errorf("mci: tasks need %d ranks, world has %d", total, world.Size())
	}

	h := &Hierarchy{World: world, Task: -1}

	// L2: topology-oriented split.
	if cfg.Torus != nil && cfg.L2Groups > 1 {
		if world.Size() > cfg.Torus.Cores() {
			return nil, fmt.Errorf("mci: world size %d exceeds torus cores %d", world.Size(), cfg.Torus.Cores())
		}
		c := cfg.Torus.Coords(world.Rank())
		slab := c.Z * cfg.L2Groups / cfg.Torus.NZ
		h.L2 = world.Split(slab, world.Rank(), "L2")
	} else {
		h.L2 = world.Split(0, world.Rank(), "L2")
	}

	// L3: task-oriented split by contiguous world rank ranges. The split
	// runs over World so a task may span several L2 groups; the L2 grouping
	// still confines the heavy intra-solver traffic when ranks are laid
	// out along the torus, which Build's contiguous assignment guarantees.
	task := -1
	lo := 0
	for i, t := range cfg.Tasks {
		if world.Rank() >= lo && world.Rank() < lo+t.Ranks {
			task = i
		}
		lo += t.Ranks
	}
	color := task
	if task < 0 {
		color = -1
	}
	h.L3 = world.Split(color, world.Rank(), "L3")
	h.Task = task
	if task >= 0 {
		h.Name = cfg.Tasks[task].Name
	}

	// Record each task's L3 root world rank (the lowest world rank of the
	// range, by construction of the split keys).
	h.l3Roots = make([]int, len(cfg.Tasks))
	lo = 0
	for i, t := range cfg.Tasks {
		h.l3Roots[i] = lo
		lo += t.Ranks
	}
	return h, nil
}

// L3RootWorldRank returns the World rank of the given task's L3 root.
func (h *Hierarchy) L3RootWorldRank(task int) int {
	if task < 0 || task >= len(h.l3Roots) {
		panic(fmt.Sprintf("mci: task %d out of %d", task, len(h.l3Roots)))
	}
	return h.l3Roots[task]
}

// InterfaceGroup is one L4 sub-communicator: the L3 ranks whose partitions
// are intersected by a given interface, plus the bookkeeping the 3-step
// exchange needs.
type InterfaceGroup struct {
	Name string
	// L4 is non-nil only on member ranks.
	L4 *mpi.Comm
	// RootWorld is the World rank of the L4 root, known by every rank of
	// the L3 (members and non-members) so peers can address it.
	RootWorld int
	// Member reports whether this rank belongs to the interface group.
	Member bool
	// Aud is the optional physics audit ledger. When set, the L4 root of
	// every Exchange reconciles the byte legs of the 3-step path — the
	// outbound trace it gathered and sent, the inbound trace it received
	// from the peer root, and the bytes the scatter delivers to members —
	// under the gi.bytes budget. The reconciliation assumes the symmetric
	// interface trace of Figure 4 (both sides share the ΓI discretization,
	// so the legs are equal counts); any mismatch is a critical exchange
	// defect. Nil disables the accounting at nil-receiver cost.
	Aud *audit.Ledger
}

// NewInterfaceGroup derives an L4 group from h.L3. member says whether the
// calling rank's partition touches the interface. It must be called
// collectively by every rank of the L3. The lowest member rank becomes the
// L4 root.
func NewInterfaceGroup(h *Hierarchy, name string, member bool) (*InterfaceGroup, error) {
	if h.L3 == nil {
		return nil, fmt.Errorf("mci: rank %d has no L3; cannot build interface %q", h.World.Rank(), name)
	}
	color := -1
	if member {
		color = 0
	}
	l4 := h.L3.Split(color, h.L3.Rank(), "L4:"+name)

	// Everyone learns the root's World rank: each rank contributes its own
	// World rank if it is the L4 root, else -1; integer Max-reduce over L3.
	// Ranks are identity data — they stay int end to end rather than taking
	// the old float64 detour, which would silently round above 2^53.
	mine := -1
	if member && l4 != nil && l4.Rank() == 0 {
		mine = h.World.Rank()
	}
	root := h.L3.AllreduceInt([]int{mine}, mpi.MaxInt)[0]
	if root < 0 {
		return nil, fmt.Errorf("mci: interface %q has no members on task %q", name, h.Name)
	}
	return &InterfaceGroup{
		Name:      name,
		L4:        l4,
		RootWorld: root,
		Member:    member,
	}, nil
}

// GatherToRoot concatenates each member's local interface payload on the L4
// root in L4 rank order (step 1 of Figure 4). Only the root receives a
// non-nil result. Non-members must not call it.
func (g *InterfaceGroup) GatherToRoot(local []float64) []float64 {
	if !g.Member {
		panic(fmt.Sprintf("mci: non-member rank called GatherToRoot on %q", g.Name))
	}
	sp := g.L4.Telemetry().Begin("mci.gather")
	defer sp.End()
	parts := g.L4.Gather(0, local)
	if parts == nil {
		return nil
	}
	var out []float64
	for _, p := range parts {
		out = append(out, p.([]float64)...)
	}
	return out
}

// SaltFor derives a stable tag salt in [0, mpi.ReservedTagSpan) from an
// interface identity (e.g. "aorta/x1<->patch2/x0"). Both sides of an
// exchange must derive the salt from the same identity string; distinct
// interfaces then land on distinct reserved tags (up to hash collisions in a
// 2^20 space, which the per-(src, dst, tag) FIFO ordering still tolerates).
func SaltFor(identity string) int {
	// FNV-1a, folded into the reserved span.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(identity); i++ {
		h ^= uint64(identity[i])
		h *= prime64
	}
	return int(h % mpi.ReservedTagSpan)
}

// Salt is the group's own identity-derived tag salt, suitable for Exchange
// when both sides construct the interface group under the same name.
func (g *InterfaceGroup) Salt() int { return SaltFor(g.Name) }

// RootExchange swaps payloads between this group's root and the peer group's
// root over World (step 2 of Figure 4). It must be called by the L4 root of
// each side with the peer root's World rank; it returns the peer's payload.
// tagSalt distinguishes concurrent exchanges over different interfaces; it
// must lie in [0, mpi.ReservedTagSpan) — derive it from the interface
// identity with SaltFor (or Salt) rather than hand-numbering. The traffic
// runs on mpi's reserved tag band, which user Sends cannot enter, so an
// exchange can never collide with solver point-to-point traffic.
func (g *InterfaceGroup) RootExchange(world *mpi.Comm, peerRootWorld, tagSalt int, payload []float64) []float64 {
	if !g.Member || g.L4.Rank() != 0 {
		panic(fmt.Sprintf("mci: RootExchange must run on the L4 root of %q", g.Name))
	}
	if tagSalt < 0 || tagSalt >= mpi.ReservedTagSpan {
		panic(fmt.Sprintf("mci: tag salt %d for %q out of range [0, %d); derive it with SaltFor",
			tagSalt, g.Name, mpi.ReservedTagSpan))
	}
	sp := world.Telemetry().Begin("mci.rootexchange")
	defer sp.End()
	world.SendReserved(peerRootWorld, tagSalt, payload)
	return world.RecvReserved(peerRootWorld, tagSalt).([]float64)
}

// ScatterFromRoot distributes a payload from the L4 root to members (step 3
// of Figure 4): member i receives the slice of length counts[i] starting at
// offset sum(counts[:i]). Every member calls it; counts must be indexed by L4
// rank and only the root's data argument is consulted.
func (g *InterfaceGroup) ScatterFromRoot(data []float64, counts []int) []float64 {
	if !g.Member {
		panic(fmt.Sprintf("mci: non-member rank called ScatterFromRoot on %q", g.Name))
	}
	sp := g.L4.Telemetry().Begin("mci.scatter")
	defer sp.End()
	if g.L4.Rank() == 0 {
		if len(counts) != g.L4.Size() {
			panic(fmt.Sprintf("mci: ScatterFromRoot on %q: %d counts for %d members", g.Name, len(counts), g.L4.Size()))
		}
		total := 0
		for _, c := range counts {
			total += c
		}
		if total != len(data) {
			panic(fmt.Sprintf("mci: ScatterFromRoot on %q: counts sum %d != payload %d", g.Name, total, len(data)))
		}
		parts := make([]any, g.L4.Size())
		off := 0
		for i, c := range counts {
			parts[i] = data[off : off+c]
			off += c
		}
		return g.L4.Scatter(0, parts).([]float64)
	}
	return g.L4.Scatter(0, nil).([]float64)
}

// BcastFromRoot distributes the root's full payload to every member; used
// when each member interpolates its own portion from the full interface
// trace.
func (g *InterfaceGroup) BcastFromRoot(data []float64) []float64 {
	if !g.Member {
		panic(fmt.Sprintf("mci: non-member rank called BcastFromRoot on %q", g.Name))
	}
	return g.L4.Bcast(0, data).([]float64)
}

// Exchange runs the full three-step inter-patch exchange of Figure 4 from
// the perspective of one side: gather local contributions to the L4 root,
// swap concatenated payloads with the peer root over World, then scatter the
// received payload back to members according to recvCounts (indexed by L4
// rank, significant on the root only). Every member of the group must call
// it; the function returns each member's slice of the received trace.
// tagSalt must be in [0, mpi.ReservedTagSpan); derive it from the interface
// identity with SaltFor (or g.Salt()) so concurrent exchanges over different
// interface pairs never share a tag.
func (g *InterfaceGroup) Exchange(world *mpi.Comm, peerRootWorld, tagSalt int, local []float64, recvCounts []int) []float64 {
	sp := g.L4.Telemetry().Begin("mci.exchange")
	defer sp.End()
	gathered := g.GatherToRoot(local)
	var received []float64
	if g.L4.Rank() == 0 {
		received = g.RootExchange(world, peerRootWorld, tagSalt, gathered)
		if g.Aud != nil {
			applied := 0
			for _, c := range recvCounts {
				applied += c
			}
			g.Aud.CountExchange(g.Name,
				int64(len(gathered))*8, int64(len(received))*8, int64(applied)*8)
		}
	}
	return g.ScatterFromRoot(received, recvCounts)
}
