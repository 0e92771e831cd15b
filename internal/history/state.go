// Plane state capture/restore. History is part of the resumable state for
// the same reason the audit ledger is: the baselines ARE the memory. A
// resumed run that re-seeded its EWMA baselines from mid-run values would
// declare the post-restart level "normal" and a regression that began
// before the checkpoint would vanish from the books; and the series rings
// are the only record of how the run got to where it is. State round-trips
// exactly (float64 fields are copied, never recomputed).
package history

import "sort"

// SeriesState is the serializable form of one series.
type SeriesState struct {
	Name    string
	Kind    Kind
	Summary Summary
	Raw     []Point // chronological
	Tiers   []TierState
	PrevCum float64
	HasPrev bool
	Det     DetectorState
}

// TierState is one downsample tier: completed bins (chronological) plus the
// in-flight accumulator.
type TierState struct {
	Factor int
	Bins   []Bin
	Acc    Bin
}

// DetectorState is the rolling baseline of one series.
type DetectorState struct {
	Mean, Dev float64
	N, Streak int
	Fired     int64
}

// State is the gob-serializable plane snapshot stored in checkpoint.Coupled
// (format v4).
type State struct {
	Samples  int64
	LastStep int64
	// AnomalyTotals is indexed by Kind.
	AnomalyTotals []int64
	Anomalies     []Anomaly
	// Series is sorted by name so two captures of equal planes are
	// DeepEqual regardless of observation order.
	Series []SeriesState
}

// CaptureState snapshots the plane for checkpointing. Nil plane → nil state
// (the checkpoint simply omits the history section).
func (p *Plane) CaptureState() *State {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	st := &State{
		Samples:       p.samples,
		LastStep:      p.lastStep,
		AnomalyTotals: append([]int64(nil), p.anomTotal[:]...),
	}
	// Chronological anomaly log (unwind the ring).
	st.Anomalies = append(st.Anomalies, p.anomalies[p.anomHead:]...)
	st.Anomalies = append(st.Anomalies, p.anomalies[:p.anomHead]...)
	for name, s := range p.series {
		ss := SeriesState{
			Name: name, Kind: s.kind, Summary: s.sum,
			Raw:     s.points(),
			PrevCum: s.prevCum, HasPrev: s.hasPrev,
			Det: DetectorState{
				Mean: s.det.mean, Dev: s.det.dev,
				N: s.det.n, Streak: s.det.streak, Fired: s.det.fired,
			},
		}
		for _, t := range s.tiers {
			ss.Tiers = append(ss.Tiers, TierState{Factor: t.factor, Bins: t.ordered(), Acc: t.acc})
		}
		st.Series = append(st.Series, ss)
	}
	sort.Slice(st.Series, func(i, j int) bool { return st.Series[i].Name < st.Series[j].Name })
	return st
}

// ApplyState overlays a captured snapshot onto the plane, replacing all live
// series — the restore half of the round-trip. A checkpoint is input from
// outside the program, so it is held to the plane's bounds: the first
// occurrence of each series name is kept, up to MaxSeries; rings are
// re-bounded to RawCap and TierCap (keeping the newest entries) and the
// anomaly log to MaxAnomalies. A nil state is a no-op (resuming a pre-v4
// checkpoint leaves the fresh plane to re-warm from the restored physics,
// the best available behaviour for legacy bundles).
func (p *Plane) ApplyState(st *State) {
	if p == nil || st == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.samples = st.Samples
	p.lastStep = st.LastStep
	p.anomTotal = [numKinds]int64{}
	for i, c := range st.AnomalyTotals {
		if i < int(numKinds) {
			p.anomTotal[i] = c
		}
	}
	p.anomalies = append(p.anomalies[:0], st.Anomalies...)
	if len(p.anomalies) > MaxAnomalies {
		p.anomalies = append([]Anomaly(nil), p.anomalies[len(p.anomalies)-MaxAnomalies:]...)
	}
	p.anomHead = 0
	p.series = make(map[string]*Series, len(st.Series))
	p.order = p.order[:0]
	for _, ss := range st.Series {
		if p.series[ss.Name] != nil {
			continue
		}
		if len(p.series) >= MaxSeries {
			break
		}
		kind := ss.Kind
		if kind >= numKinds {
			// A foreign or corrupt blob: the anomaly counters are indexed
			// by kind, so an unknown one is kept as an untyped series.
			kind = KindOther
		}
		s := newSeries(ss.Name, kind)
		s.sum = ss.Summary
		raw := ss.Raw
		if len(raw) > RawCap {
			raw = raw[len(raw)-RawCap:]
		}
		s.raw = append(s.raw, raw...)
		for i, t := range s.tiers {
			if i >= len(ss.Tiers) {
				break
			}
			bins := ss.Tiers[i].Bins
			if len(bins) > TierCap {
				bins = bins[len(bins)-TierCap:]
			}
			t.bins = append(t.bins, bins...)
			t.acc = ss.Tiers[i].Acc
		}
		s.prevCum, s.hasPrev = ss.PrevCum, ss.HasPrev
		s.det.mean, s.det.dev = ss.Det.Mean, ss.Det.Dev
		s.det.n, s.det.streak, s.det.fired = ss.Det.N, ss.Det.Streak, ss.Det.Fired
		p.series[ss.Name] = s
		p.order = append(p.order, ss.Name)
	}
}
