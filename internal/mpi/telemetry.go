package mpi

// Telemetry integration: per-rank traffic accounting hooks and the
// cluster-wide reporter.
//
// Every message is counted exactly once, at the sending rank, inside
// Comm.send — the single funnel through which point-to-point traffic, the
// reserved coupling band and every hop of every collective pass. The (level,
// op) key is derived with no per-message allocation: the communicator level
// is fixed at communicator creation from its name, and the op is decoded from
// the tag (negative collective tags embed their op code; the reserved band is
// coupling traffic; everything else is user point-to-point).
//
// The cluster-wide reporter (ReduceTelemetry) is the tree reduction of the
// merge rule whose serial fold is telemetry.Aggregate.

import (
	"strings"

	"nektarg/internal/telemetry"
)

// AttachTelemetry installs a per-rank recorder on this communicator handle.
// The recorder is inherited by communicators later derived via Split, so
// attaching on World before mci.Build instruments the whole L2/L3/L4 tree.
// The recorder's hop clock is bound to this communicator. Passing nil
// detaches. Like the handle itself, the recorder must be owned by this rank's
// goroutine only.
func (c *Comm) AttachTelemetry(rec *telemetry.Recorder) {
	c.rec = rec
	if rec != nil {
		rec.SetHopClock(c.Hops)
	}
}

// Telemetry returns the attached recorder (nil when telemetry is disabled).
func (c *Comm) Telemetry() *telemetry.Recorder {
	if c == nil {
		return nil
	}
	return c.rec
}

// levelFromName classifies a communicator by the MCI naming scheme used in
// Split ("world", "world/L2.0", "world/L3.1", "world/L3.1/L4:inlet.0").
// Deepest level wins, so an L4 derived from an L3 counts as L4.
func levelFromName(name string) telemetry.Level {
	switch {
	case strings.Contains(name, "/L4"):
		return telemetry.LevelL4
	case strings.Contains(name, "/L3"):
		return telemetry.LevelL3
	case strings.Contains(name, "/L2"):
		return telemetry.LevelL2
	case name == "world":
		return telemetry.LevelWorld
	default:
		return telemetry.LevelOther
	}
}

// opForTag decodes the traffic kind from a message tag: negative tags are
// collective rounds carrying their op code (see collTag), the reserved band
// is coupling traffic (the MCI root-to-root exchange), and non-negative user
// tags are point-to-point. Split is composed from Gather + Scatter and is
// accounted as such on the parent communicator.
func opForTag(tag int) telemetry.Op {
	if tag < 0 {
		switch (-tag) & 15 {
		case opBarrier:
			return telemetry.OpBarrier
		case opBcast:
			return telemetry.OpBcast
		case opGather:
			return telemetry.OpGather
		case opScatter:
			return telemetry.OpScatter
		case opAllreduce:
			return telemetry.OpAllreduce
		case opAllgather:
			return telemetry.OpAllgather
		case opReduce:
			return telemetry.OpReduce
		case opAlltoall:
			return telemetry.OpAlltoall
		}
		return telemetry.OpP2P
	}
	if tag >= ReservedTagBase {
		return telemetry.OpCoupling
	}
	return telemetry.OpP2P
}

// ReduceTelemetry aggregates every rank's telemetry snapshot at root and
// returns the cluster statistics there (nil on non-root ranks): the binomial
// tree reduction of telemetry.ClusterStats.Merge, depth log2 P. It must be
// called collectively by every rank of c; ranks without a recorder pass nil
// and contribute an empty aggregate. The snapshot is taken before any
// reporter traffic flows, so the reporter does not count itself.
func ReduceTelemetry(c *Comm, rec *telemetry.Recorder, root int) *telemetry.ClusterStats {
	local := telemetry.Aggregate([]*telemetry.Snapshot{rec.Snapshot()})
	c.checkRoot(root)
	out := reduceTree(c, c.collTag(opReduce), root, []*telemetry.ClusterStats{local},
		func(a, b *telemetry.ClusterStats) *telemetry.ClusterStats { a.Merge(b); return a })
	if out == nil {
		return nil
	}
	return out[0]
}
