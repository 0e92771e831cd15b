package monitor

import "sort"

// Stat is one externally supplied metric sample, the bridge by which
// subsystems outside the telemetry registry (the TCP transport's frame
// counters, for instance) surface numbers into /metrics and the fleet
// rollup without the monitor importing them. Name is the family suffix —
// the exposition prepends "<namespace>_" — and samples of one family must
// share Help and Type.
type Stat struct {
	Name   string      `json:"name"`             // family suffix, e.g. "transport_frames_sent_total"
	Help   string      `json:"help"`             // HELP text for the family
	Type   string      `json:"type"`             // "counter" or "gauge"
	Labels [][2]string `json:"labels,omitempty"` // label key/value pairs, pre-sorted by the producer
	Value  float64     `json:"value"`
}

// AddStatSource registers an extra metric source polled at scrape time.
// Sources must be safe for concurrent calls.
func (m *Monitor) AddStatSource(fn func() []Stat) {
	if m == nil || fn == nil {
		return
	}
	m.mu.Lock()
	m.stats = append(m.stats, fn)
	m.mu.Unlock()
}

// Stats polls every registered stat source and returns the samples grouped
// by family (stable-sorted on Name, producer order preserved within one),
// ready for WriteMetrics or a fleet publish.
func (m *Monitor) Stats() []Stat {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	sources := append([]func() []Stat(nil), m.stats...)
	m.mu.Unlock()
	var out []Stat
	for _, fn := range sources {
		out = append(out, fn()...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
