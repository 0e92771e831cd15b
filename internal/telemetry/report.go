package telemetry

import (
	"fmt"
	"slices"
	"strings"
)

// ClusterStage is one stage aggregated across tracks/ranks: per-track totals
// summarized as min/mean/max plus the imbalance ratio max/mean — the paper's
// per-stage timing-table shape (min/mean/max over 131,072 cores).
type ClusterStage struct {
	Name      string  `json:"name"`
	Count     int64   `json:"count"`       // total occurrences across tracks
	Tracks    int     `json:"tracks"`      // tracks that recorded the stage
	Total     float64 `json:"total_s"`     // summed seconds across tracks
	TotalMin  float64 `json:"min_track_s"` // smallest per-track total
	TotalMean float64 `json:"mean_track_s"`
	TotalMax  float64 `json:"max_track_s"`
	SpanMin   float64 `json:"min_span_s"` // shortest single occurrence
	SpanMax   float64 `json:"max_span_s"` // longest single occurrence
	Imbalance float64 `json:"imbalance"`  // TotalMax / TotalMean (1 = perfectly balanced)
	Hops      int64   `json:"hops"`       // hop-clock advance attributed to the stage
	Straggler string  `json:"-"`          // track owning TotalMax
}

// merge folds o, the same stage over a disjoint set of tracks, into s. This
// is the one place per-stage min/mean/max is accumulated. On equal TotalMax
// the receiver's straggler stands, so every reduction that keeps operands in
// track order (the serial fold, the binomial tree) names the same one.
func (s *ClusterStage) merge(o *ClusterStage) {
	s.Count += o.Count
	s.Tracks += o.Tracks
	s.Total += o.Total
	s.Hops += o.Hops
	s.TotalMin = min(s.TotalMin, o.TotalMin)
	s.SpanMin = min(s.SpanMin, o.SpanMin)
	s.SpanMax = max(s.SpanMax, o.SpanMax)
	if o.TotalMax > s.TotalMax {
		s.TotalMax, s.Straggler = o.TotalMax, o.Straggler
	}
	s.derive()
}

// derive sets the fields that are functions of the accumulated ones.
func (s *ClusterStage) derive() {
	s.TotalMean = s.Total / float64(s.Tracks)
	s.Imbalance = 1
	if s.TotalMean > 0 {
		s.Imbalance = s.TotalMax / s.TotalMean
	}
}

// ClusterGauge is one gauge aggregated across tracks.
type ClusterGauge struct {
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Sum   float64 `json:"sum"`
}

func (g *ClusterGauge) merge(o *ClusterGauge) {
	g.Count += o.Count
	g.Sum += o.Sum
	g.Min = min(g.Min, o.Min)
	g.Max = max(g.Max, o.Max)
	g.Mean = GaugeStats{Count: g.Count, Sum: g.Sum}.Mean()
}

// ClusterStats is the cluster-wide (or registry-wide) aggregate: the per-step
// table the metasolver reports and the telemetry.json summary serializes.
// Stages and Gauges are sorted by name. It is also its own partial
// aggregate: the stats of two disjoint track sets Merge into the stats of
// their union.
type ClusterStats struct {
	Tracks  int            `json:"tracks"`
	Stages  []ClusterStage `json:"stages"`
	Gauges  []ClusterGauge `json:"gauges"`
	Traffic TrafficMatrix  `json:"traffic"`
}

// Merge folds the aggregate of a disjoint set of tracks into cs. It is
// associative, so any grouping of the tracks folds to the same tables (sums
// to rounding).
func (cs *ClusterStats) Merge(o *ClusterStats) {
	cs.Tracks += o.Tracks
	cs.Traffic.add(&o.Traffic)
	cs.Stages = mergeByName(cs.Stages, o.Stages,
		func(s *ClusterStage) string { return s.Name }, (*ClusterStage).merge)
	cs.Gauges = mergeByName(cs.Gauges, o.Gauges,
		func(g *ClusterGauge) string { return g.Name }, (*ClusterGauge).merge)
}

// mergeByName merge-joins two name-sorted lists, combining equal names.
func mergeByName[T any](a, b []T, name func(*T) string, merge func(*T, *T)) []T {
	if len(b) == 0 {
		return a
	}
	out := make([]T, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch na, nb := name(&a[0]), name(&b[0]); {
		case na < nb:
			out, a = append(out, a[0]), a[1:]
		case na > nb:
			out, b = append(out, b[0]), b[1:]
		default:
			merge(&a[0], &b[0])
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// trackStats is the aggregate of one track: the base case of Merge.
func trackStats(s *Snapshot) *ClusterStats {
	cs := &ClusterStats{
		Tracks:  1,
		Traffic: s.Traffic,
		Stages:  make([]ClusterStage, 0, len(s.Stages)),
		Gauges:  make([]ClusterGauge, 0, len(s.Gauges)),
	}
	for name, st := range s.Stages {
		one := ClusterStage{
			Name: name, Count: st.Count, Tracks: 1, Hops: st.Hops,
			Total: st.Total, TotalMin: st.Total, TotalMax: st.Total, Straggler: s.Track,
			SpanMin: st.Min, SpanMax: st.Max,
		}
		one.derive()
		cs.Stages = append(cs.Stages, one)
	}
	slices.SortFunc(cs.Stages, func(a, b ClusterStage) int { return strings.Compare(a.Name, b.Name) })
	for name, g := range s.Gauges {
		cs.Gauges = append(cs.Gauges, ClusterGauge{Name: name, Count: g.Count, Mean: g.Mean(), Min: g.Min, Max: g.Max, Sum: g.Sum})
	}
	slices.SortFunc(cs.Gauges, func(a, b ClusterGauge) int { return strings.Compare(a.Name, b.Name) })
	return cs
}

// Aggregate combines per-track snapshots into cluster statistics: the serial
// fold of Merge (nil snapshots are skipped).
func Aggregate(snaps []*Snapshot) *ClusterStats {
	cs := &ClusterStats{}
	for _, s := range snaps {
		if s != nil {
			cs.Merge(trackStats(s))
		}
	}
	return cs
}

// AggregateRecorders snapshots and aggregates a registry's recorders.
func AggregateRecorders(recs []*Recorder) *ClusterStats {
	snaps := make([]*Snapshot, 0, len(recs))
	for _, r := range recs {
		if s := r.Snapshot(); s != nil {
			snaps = append(snaps, s)
		}
	}
	return Aggregate(snaps)
}

// Stage returns the named stage, or nil.
func (cs *ClusterStats) Stage(name string) *ClusterStage {
	for i := range cs.Stages {
		if cs.Stages[i].Name == name {
			return &cs.Stages[i]
		}
	}
	return nil
}

// CouplingFraction returns total(couplingStage)/total(totalStage): the
// paper's coupling-overhead metric ("the MCI overhead stays below 2-3% of
// the step time"). Returns 0 when either stage is absent or empty.
func (cs *ClusterStats) CouplingFraction(couplingStage, totalStage string) float64 {
	c := cs.Stage(couplingStage)
	t := cs.Stage(totalStage)
	if c == nil || t == nil || t.Total <= 0 {
		return 0
	}
	return c.Total / t.Total
}

// FormatStageTable renders the per-stage timing table: count, per-occurrence
// mean, per-track min/mean/max totals and the imbalance ratio.
func (cs *ClusterStats) FormatStageTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %7s %10s %10s %10s %10s %7s %6s\n",
		"stage", "count", "per-call", "min/track", "mean/track", "max/track", "imbal", "hops")
	for _, s := range cs.Stages {
		perCall := 0.0
		if s.Count > 0 {
			perCall = s.Total / float64(s.Count)
		}
		fmt.Fprintf(&b, "%-26s %7d %10s %10s %10s %10s %6.2fx %6d\n",
			s.Name, s.Count, FormatSeconds(perCall), FormatSeconds(s.TotalMin), FormatSeconds(s.TotalMean), FormatSeconds(s.TotalMax), s.Imbalance, s.Hops)
	}
	return b.String()
}

// FormatTrafficTable renders the nonzero cells of the traffic matrix grouped
// by communicator level — the MCI 3-step exchange accounting.
func (cs *ClusterStats) FormatTrafficTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-10s %10s %14s\n", "level", "op", "msgs", "bytes")
	for l := Level(0); l < NumLevels; l++ {
		for op := Op(0); op < NumOps; op++ {
			t := cs.Traffic[l][op]
			if t.Msgs == 0 && t.Bytes == 0 {
				continue
			}
			fmt.Fprintf(&b, "%-8s %-10s %10d %14d\n", l, op, t.Msgs, t.Bytes)
		}
	}
	return b.String()
}

// FormatGaugeTable renders the gauge aggregates.
func (cs *ClusterStats) FormatGaugeTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %8s %12s %12s %12s %12s\n", "gauge", "count", "mean", "min", "max", "last-sum")
	for _, g := range cs.Gauges {
		fmt.Fprintf(&b, "%-26s %8d %12.4g %12.4g %12.4g %12.4g\n", g.Name, g.Count, g.Mean, g.Min, g.Max, g.Sum)
	}
	return b.String()
}

// FormatSeconds renders seconds with an adaptive unit (ns, µs, ms, s): the
// one duration format of every telemetry and monitor table.
func FormatSeconds(s float64) string {
	switch {
	case s == 0:
		return "0"
	case s < 1e-6:
		return fmt.Sprintf("%.0fns", s*1e9)
	case s < 1e-3:
		return fmt.Sprintf("%.1fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.3fs", s)
	}
}
