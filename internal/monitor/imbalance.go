package monitor

import (
	"fmt"
	"sort"
	"strings"

	"nektarg/internal/telemetry"
)

// StageImbalance is the load-balance diagnosis for one stage across tracks:
// the paper's per-stage min/mean/max table sharpened into a verdict — which
// rank is the straggler, how far from balanced the stage is, and how much of
// the run's communication critical path (hop clock) the stage owns.
type StageImbalance struct {
	Stage     string  `json:"stage"`
	Tracks    int     `json:"tracks"`
	Count     int64   `json:"count"`
	MinS      float64 `json:"min_track_s"`
	MeanS     float64 `json:"mean_track_s"`
	MaxS      float64 `json:"max_track_s"`
	Ratio     float64 `json:"imbalance"` // max/mean per-track total; 1 = perfectly balanced
	Straggler string  `json:"straggler"` // track with the largest total
	// StragglerShare is the straggler's fraction of the stage's summed time:
	// 1/Tracks when balanced, →1 when one rank serializes the stage.
	StragglerShare float64 `json:"straggler_share"`
	Hops           int64   `json:"hops"`
	// CriticalShare is the stage's share of the hop-clock advance summed over
	// all stages — which stages own the communication critical path. Nested
	// spans are both charged, so shares are comparable within one nesting
	// level rather than summing to exactly 1 across all stages.
	CriticalShare float64 `json:"critical_share"`
}

// AnalyzeImbalance computes per-stage imbalance diagnoses from per-track
// snapshots. Results are sorted by stage name (deterministic for golden
// tests); FormatImbalanceTable re-sorts by severity for human eyes.
func AnalyzeImbalance(snaps []*telemetry.Snapshot) []StageImbalance {
	return imbalanceOf(telemetry.Aggregate(snaps))
}

// imbalanceOf projects the cluster aggregate onto the diagnoses: the
// straggler and critical-path shares are ratios of what it already holds.
func imbalanceOf(cs *telemetry.ClusterStats) []StageImbalance {
	var totalHops int64
	for i := range cs.Stages {
		totalHops += cs.Stages[i].Hops
	}
	out := make([]StageImbalance, 0, len(cs.Stages))
	for _, s := range cs.Stages {
		r := StageImbalance{
			Stage: s.Name, Tracks: s.Tracks, Count: s.Count,
			MinS: s.TotalMin, MeanS: s.TotalMean, MaxS: s.TotalMax, Ratio: s.Imbalance,
			Straggler: s.Straggler, Hops: s.Hops,
		}
		if s.Total > 0 {
			r.StragglerShare = s.TotalMax / s.Total
		}
		if totalHops > 0 {
			r.CriticalShare = float64(s.Hops) / float64(totalHops)
		}
		out = append(out, r)
	}
	return out
}

// FormatImbalanceTable renders the analyzer output as a fixed-width report,
// worst imbalance first — the operator's "which rank is slow and where"
// answer, also served at GET /imbalance.
func FormatImbalanceTable(imb []StageImbalance) string {
	rows := append([]StageImbalance(nil), imb...)
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Ratio != rows[j].Ratio {
			return rows[i].Ratio > rows[j].Ratio
		}
		return rows[i].Stage < rows[j].Stage
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %6s %10s %10s %10s %7s %-18s %6s %6s\n",
		"stage", "tracks", "min/track", "mean/track", "max/track", "imbal", "straggler", "share", "crit%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-26s %6d %10s %10s %10s %6.2fx %-18s %5.0f%% %5.1f%%\n",
			r.Stage, r.Tracks, telemetry.FormatSeconds(r.MinS), telemetry.FormatSeconds(r.MeanS), telemetry.FormatSeconds(r.MaxS),
			r.Ratio, r.Straggler, 100*r.StragglerShare, 100*r.CriticalShare)
	}
	return b.String()
}
