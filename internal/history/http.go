package history

import (
	"encoding/json"
	"sort"
)

// SeriesJSON is one series as served on GET /history and written by
// -history-out. Exactly one of Points (tier 0, raw) or Bins (downsampled
// tiers) is populated, selected by the requested tier.
type SeriesJSON struct {
	Name    string  `json:"name"`
	Kind    Kind    `json:"kind"`
	Samples int64   `json:"samples"`
	Mean    float64 `json:"mean"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Last    float64 `json:"last"`
	Tier    int     `json:"tier"`
	Points  []Point `json:"points,omitempty"`
	Bins    []Bin   `json:"bins,omitempty"`
}

// Doc is the complete history document: every series (at one tier each)
// plus the anomaly log. perf-report consumes two of these.
type Doc struct {
	Step          int64        `json:"step"`
	Samples       int64        `json:"samples"`
	SampleSeconds float64      `json:"sample_seconds_total"`
	Series        []SeriesJSON `json:"series"`
	Anomalies     []Anomaly    `json:"anomalies"`
	AnomalyTotal  int64        `json:"anomaly_total"`
}

// Doc assembles the document. prefix filters series by name prefix (""
// keeps all). tier selects the resolution: 0 is raw, 1.. the downsample
// tiers, and a negative tier auto-selects per series — the rawest tier
// whose retained length fits maxPoints. maxPoints additionally truncates
// to the newest N entries (0 = unlimited). A nil plane returns nil.
func (p *Plane) Doc(prefix string, tier, maxPoints int) *Doc {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	d := &Doc{
		Step: p.lastStep, Samples: p.samples,
		SampleSeconds: float64(p.sampleNs) / 1e9,
	}
	names := append([]string(nil), p.order...)
	sort.Strings(names)
	for _, name := range names {
		if prefix != "" && (len(name) < len(prefix) || name[:len(prefix)] != prefix) {
			continue
		}
		s := p.series[name]
		sj := SeriesJSON{
			Name: name, Kind: s.kind, Samples: s.sum.Count,
			Mean: s.sum.Mean(), Min: s.sum.Min, Max: s.sum.Max, Last: s.sum.Last,
		}
		t := tier
		if t < 0 {
			t = 0
			if maxPoints > 0 && len(s.raw) > maxPoints {
				for i, tr := range s.tiers {
					if len(tr.bins) == 0 {
						// No completed bins yet (early in the run): coarser
						// tiers are emptier still, and newest-N truncated raw
						// beats an empty ring.
						break
					}
					t = i + 1
					if len(tr.bins) <= maxPoints {
						break
					}
				}
			}
		}
		switch {
		case t == 0:
			pts := s.points()
			if maxPoints > 0 && len(pts) > maxPoints {
				pts = pts[len(pts)-maxPoints:]
			}
			sj.Points = pts
		case t-1 < len(s.tiers):
			bins := s.tiers[t-1].ordered()
			if maxPoints > 0 && len(bins) > maxPoints {
				bins = bins[len(bins)-maxPoints:]
			}
			sj.Tier = t
			sj.Bins = bins
		default:
			// Requested tier beyond configuration: serve the coarsest.
			last := len(s.tiers) - 1
			if last >= 0 {
				sj.Tier = last + 1
				sj.Bins = s.tiers[last].ordered()
			}
		}
		d.Series = append(d.Series, sj)
	}
	d.Anomalies = append(d.Anomalies, p.anomalies[p.anomHead:]...)
	d.Anomalies = append(d.Anomalies, p.anomalies[:p.anomHead]...)
	for _, c := range p.anomTotal {
		d.AnomalyTotal += c
	}
	return d
}

// HistoryJSON renders Doc as indented JSON — the monitor's /history handler
// and the fleet publisher call it through the HistorySource interface.
func (p *Plane) HistoryJSON(prefix string, tier, maxPoints int) ([]byte, error) {
	if p == nil {
		return nil, nil
	}
	return json.MarshalIndent(p.Doc(prefix, tier, maxPoints), "", "  ")
}

// AnomaliesJSON renders the anomaly log plus totals (GET /anomalies).
func (p *Plane) AnomaliesJSON() ([]byte, error) {
	if p == nil {
		return nil, nil
	}
	p.mu.Lock()
	anoms := make([]Anomaly, 0, len(p.anomalies))
	anoms = append(anoms, p.anomalies[p.anomHead:]...)
	anoms = append(anoms, p.anomalies[:p.anomHead]...)
	totals := map[string]int64{}
	var total int64
	for k := Kind(0); k < numKinds; k++ {
		if p.anomTotal[k] > 0 {
			totals[k.String()] = p.anomTotal[k]
			total += p.anomTotal[k]
		}
	}
	p.mu.Unlock()
	return json.MarshalIndent(struct {
		Total     int64            `json:"total"`
		ByKind    map[string]int64 `json:"by_kind"`
		Anomalies []Anomaly        `json:"anomalies"`
	}{total, totals, anoms}, "", "  ")
}
