package monitor

import (
	"io"
	"sort"
	"strings"

	"nektarg/internal/telemetry"
)

// The /metrics exposition, rendered straight from telemetry snapshots through
// the Exposition writer: the monitor owns the snapshot → exposition
// translation so the solvers stay dependency-free.
//
// Metric families (namespace default "nektarg"):
//
//	<ns>_up                                         1 while serving
//	<ns>_tracks                                     number of telemetry tracks
//	<ns>_stage_seconds_total{track,stage}           cumulative stage seconds, per rank
//	<ns>_stage_count_total{track,stage}             stage occurrences, per rank
//	<ns>_stage_hops_total{track,stage}              hop-clock advance, per rank
//	<ns>_cluster_stage_seconds{stage,stat}          min/mean/max per-track totals
//	<ns>_stage_imbalance_ratio{stage}               max/mean per-track total
//	<ns>_stage_straggler_share{stage}               straggler's fraction of stage time
//	<ns>_stage_critical_path_share{stage}           stage's share of total hop advance
//	<ns>_traffic_messages_total{level,op}           cluster messages by MCI level × op
//	<ns>_traffic_bytes_total{level,op}              cluster payload bytes by level × op
//	<ns>_solver_gauge{track,gauge,stat}             last/mean/min/max of solver gauges
//	<ns>_telemetry_dropped_events_total{track}      span records evicted from each track's ring
//	<ns>_insitu_published_total                     snapshot pieces offered by publishers
//	<ns>_insitu_delivered_total                     pieces consumed by the observer
//	<ns>_insitu_dropped_total                       pieces shed by the transport
//	<ns>_insitu_bytes_total                         payload bytes published
//	<ns>_insitu_frames_total                        causally consistent frames assembled
//	<ns>_insitu_staleness_steps                     steps the latest frame trails the newest piece
//	<ns>_health_healthy                             1 healthy, 0 tripped (since last re-arm)
//	<ns>_health_events_total{watchdog,severity}     watchdog event counters
//	<ns>_health_trips_total                         critical events (cumulative)
//	<ns>_health_rearms_total                        recovery re-arms

// WriteMetrics renders snapshots, their cluster aggregate, extra stat samples
// (transport counters and other out-of-registry sources — pass nil for none)
// and health counters as Prometheus text exposition. Output is deterministic
// for a given input (tracks, stages, labels and extra families all sorted),
// which the golden test pins.
func WriteMetrics(w io.Writer, namespace string, snaps []*telemetry.Snapshot, extra []Stat, h *Health) error {
	e := NewExposition(w, namespace)
	e.Value("_up", "Whether the monitor is serving.", "gauge", 1)
	e.Value("_tracks", "Number of telemetry tracks (ranks/patches/regions).", "gauge", float64(len(snaps)))

	ordered := append([]*telemetry.Snapshot(nil), snaps...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Track < ordered[j].Track })

	// Per-rank stage aggregates.
	perStage := func(suffix, help string, value func(telemetry.StageStats) float64) {
		e.Family(suffix, help, "counter")
		for _, s := range ordered {
			for _, stage := range s.StageNames() {
				e.Sample([][2]string{{"track", s.Track}, {"stage", stage}}, value(s.Stages[stage]))
			}
		}
	}
	perStage("_stage_seconds_total", "Cumulative seconds spent in each stage, per track.",
		func(st telemetry.StageStats) float64 { return st.Total })
	perStage("_stage_count_total", "Stage occurrences, per track.",
		func(st telemetry.StageStats) float64 { return float64(st.Count) })
	perStage("_stage_hops_total", "Hop-clock advance attributed to each stage, per track.",
		func(st telemetry.StageStats) float64 { return float64(st.Hops) })

	// Cluster-aggregated stage statistics, imbalance and traffic: the
	// aggregate is taken in the caller's track order, which decides the
	// straggler on ties.
	cs := telemetry.Aggregate(snaps)
	e.StageRollup("_stage", "track", "cluster", cs)
	e.Family("_stage_critical_path_share", "Stage's share of the total hop-clock advance.", "gauge")
	for _, r := range imbalanceOf(cs) {
		e.Sample([][2]string{{"stage", r.Stage}}, r.CriticalShare)
	}
	e.Traffic("_traffic", "Messages sent, by MCI communicator level and operation.",
		"Payload bytes sent, by MCI communicator level and operation.", &cs.Traffic)

	// Solver gauges, per track.
	e.Family("_solver_gauge", "Solver gauge series (CG iterations, particle counts, ...).", "gauge")
	for _, s := range ordered {
		names := make([]string, 0, len(s.Gauges))
		for n := range s.Gauges {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			g := s.Gauges[n]
			for _, st := range [...]struct {
				stat string
				v    float64
			}{{"last", g.Last}, {"mean", g.Mean()}, {"min", g.Min}, {"max", g.Max}} {
				e.Sample([][2]string{{"track", s.Track}, {"gauge", n}, {"stat", st.stat}}, st.v)
			}
		}
	}

	// Telemetry ring eviction, per track. Always emitted — including 0: a
	// flat-zero series is how an operator proves no span records were lost.
	e.Family("_telemetry_dropped_events_total", "Span records evicted from each track's telemetry ring.", "counter")
	for _, s := range ordered {
		e.Sample([][2]string{{"track", s.Track}}, float64(s.DroppedEvents))
	}

	// In-situ pipeline accounting, derived from the observer track's
	// insitu.* gauges (the observer mirrors its counters there so the
	// exposition needs no extra plumbing). Families appear once any track
	// carries in-situ gauges.
	if hasInsituGauges(ordered) {
		for _, fam := range [...]struct {
			suffix, help, typ, gauge string
			max                      bool // max across tracks (gauges); else sum (counters)
		}{
			{"_insitu_published_total", "Snapshot pieces offered by in-situ publishers.", "counter", "insitu.published", false},
			{"_insitu_delivered_total", "Snapshot pieces consumed by the observer.", "counter", "insitu.delivered", false},
			{"_insitu_dropped_total", "Snapshot pieces shed by the in-situ transport.", "counter", "insitu.dropped", false},
			{"_insitu_bytes_total", "Payload bytes published into the in-situ pipeline.", "counter", "insitu.bytes", false},
			{"_insitu_frames_total", "Causally consistent frames assembled by the observer.", "counter", "insitu.frames", false},
			{"_insitu_staleness_steps", "Steps the latest assembled frame trails the newest published piece.", "gauge", "insitu.staleness", true},
		} {
			var v float64
			for _, s := range ordered {
				g, ok := s.Gauges[fam.gauge]
				if !ok {
					continue
				}
				if fam.max {
					if g.Last > v {
						v = g.Last
					}
				} else {
					v += g.Last
				}
			}
			e.Value(fam.suffix, fam.help, fam.typ, v)
		}
	}

	// Extra stat samples (transport counters and other sources registered via
	// Monitor.AddStatSource).
	e.Stats(extra)

	// Health.
	hv := 1.0
	if !h.Healthy() {
		hv = 0
	}
	e.Value("_health_healthy", "1 while no watchdog has tripped since the last re-arm, 0 after a critical event.", "gauge", hv)
	e.Value("_health_trips_total", "Cumulative critical watchdog events.", "counter", float64(h.Trips()))
	e.Value("_health_rearms_total", "Times the health verdict was re-armed after recovery.", "counter", float64(h.Rearms()))
	e.Family("_health_events_total", "Watchdog events by watchdog and severity.", "counter")
	counts := h.WatchdogCounts()
	wnames := make([]string, 0, len(counts))
	for n := range counts {
		wnames = append(wnames, n)
	}
	sort.Strings(wnames)
	for _, n := range wnames {
		c := counts[n]
		for sev := SevInfo; sev <= SevCritical; sev++ {
			if c[sev] == 0 {
				continue
			}
			e.Sample([][2]string{{"watchdog", n}, {"severity", sev.String()}}, float64(c[sev]))
		}
	}
	return e.Err()
}

// hasInsituGauges reports whether any track carries in-situ pipeline gauges.
func hasInsituGauges(snaps []*telemetry.Snapshot) bool {
	for _, s := range snaps {
		for name := range s.Gauges {
			if strings.HasPrefix(name, "insitu.") {
				return true
			}
		}
	}
	return false
}
