package history

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"

	"nektarg/internal/monitor"
)

// SeriesJSON is one series as served on GET /history and written by
// -history-out. Exactly one of Points (tier 0, raw) or Bins (downsampled
// tiers; the newest is the bin still filling) is populated, selected by the
// requested tier.
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
// tiers (a tier past Tiers serves the coarsest), and a negative tier
// auto-selects per series — the rawest tier whose served length fits
// maxPoints, else the coarsest. maxPoints additionally truncates to the
// newest N entries (0 = unlimited). Every tier serves its filling bin last,
// so each served window ends at the series' newest sample. A nil plane
// returns nil.
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
		t := min(tier, len(s.tiers))
		if t < 0 {
			t = 0
			for maxPoints > 0 && t < len(s.tiers) && s.servedLen(t) > maxPoints {
				t++
			}
		}
		if t == 0 {
			sj.Points = newest(s.points(), maxPoints)
		} else {
			sj.Tier = t
			sj.Bins = newest(s.tiers[t-1].served(), maxPoints)
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

// newest truncates a chronological slice to its newest n entries (n <= 0
// keeps all).
func newest[T any](xs []T, n int) []T {
	if n > 0 && len(xs) > n {
		return xs[len(xs)-n:]
	}
	return xs
}

// Routes serves the plane on the monitor: GET /history (query series=
// name-prefix filter, tier= downsample level, max= newest-N truncation; the
// Doc arguments, defaulting to auto-tier and 512) and GET /anomalies.
func (p *Plane) Routes() map[string]http.HandlerFunc {
	return map[string]http.HandlerFunc{
		"/history": monitor.JSONHandler(func(r *http.Request) ([]byte, error) {
			q := r.URL.Query()
			return p.HistoryJSON(q.Get("series"), queryInt(q.Get("tier"), -1), queryInt(q.Get("max"), 512))
		}),
		"/anomalies": monitor.JSONHandler(func(*http.Request) ([]byte, error) { return p.AnomaliesJSON() }),
	}
}

// queryInt parses an optional integer query parameter, falling back to def
// on absence or garbage.
func queryInt(s string, def int) int {
	if n, err := strconv.Atoi(s); err == nil {
		return n
	}
	return def
}

// HistoryJSON renders Doc as indented JSON — the /history route and the
// fleet publisher's compact document.
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
