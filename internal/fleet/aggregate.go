package fleet

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"nektarg/internal/monitor"
	"nektarg/internal/telemetry"
)

// ProcessStatus is one process's published observability state: identity
// (proc id, rank set, incarnation, transport kind), its telemetry snapshots,
// its local health verdict, and any extra stat samples (transport counters).
// It is the JSON body POSTed to /cluster/publish.
type ProcessStatus struct {
	Proc        string                `json:"proc"`  // stable process id, e.g. "rank0"
	Ranks       []int                 `json:"ranks"` // world ranks hosted by this process
	Incarnation int                   `json:"incarnation"`
	Transport   string                `json:"transport"`
	TimeUnixNs  int64                 `json:"time_unix_ns"`
	Snapshots   []*telemetry.Snapshot `json:"snapshots,omitempty"`
	Verdict     monitor.Verdict       `json:"verdict"`
	Stats       []monitor.Stat        `json:"stats,omitempty"`
	// History is the process's compact performance-history document
	// (series downsampled to fit a publish, plus the anomaly log) as
	// produced by the monitor's HistorySource; empty when the history
	// plane is disabled. /cluster/history serves the fleet-wide view.
	History json.RawMessage `json:"history,omitempty"`
}

// ProcessVerdict is one process's entry in the cluster verdict.
type ProcessVerdict struct {
	Proc        string          `json:"proc"`
	Ranks       []int           `json:"ranks"`
	Incarnation int             `json:"incarnation"`
	Transport   string          `json:"transport"`
	Healthy     bool            `json:"healthy"`
	AgeS        float64         `json:"age_s"` // seconds since this process last published
	Verdict     monitor.Verdict `json:"verdict"`
}

// ClusterVerdict is the JSON body served by /cluster/healthz: the latched
// cluster-wide verdict plus every process's own.
type ClusterVerdict struct {
	Status     string           `json:"status"` // "healthy" | "unhealthy"
	Healthy    bool             `json:"healthy"`
	Latched    bool             `json:"latched"`     // an outage latched the verdict (until re-arm)
	LatchCause string           `json:"latch_cause"` // what latched it ("" when not latched)
	Outages    int64            `json:"outages"`     // cumulative latch events
	Rearms     int64            `json:"rearms"`      // cumulative re-arms
	Processes  []ProcessVerdict `json:"processes"`
}

// procEntry is the aggregator's latest knowledge of one process.
type procEntry struct {
	st   ProcessStatus
	seen time.Time
}

// Aggregator is the supervisor-side fleet state: the latest ProcessStatus
// per process plus a latched outage verdict. Like the per-process Health, the
// verdict latches: any critical condition — a process publishing an unhealthy
// verdict, or a world-lost/world-failed journal event — flips
// /cluster/healthz to 503 until Rearm (driven by the journal's recovered
// event). All methods are safe for concurrent use.
type Aggregator struct {
	mu         sync.Mutex
	procs      map[string]*procEntry
	latched    bool
	latchCause string
	outages    int64
	rearms     int64
	now        func() time.Time // test seam
}

// NewAggregator creates an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{procs: map[string]*procEntry{}, now: time.Now}
}

// Report ingests one process's published status, replacing its previous one.
// A status carrying an unhealthy local verdict latches the cluster verdict.
func (a *Aggregator) Report(st ProcessStatus) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.procs[st.Proc] = &procEntry{st: st, seen: a.now()}
	if !st.Verdict.Healthy && !a.latched {
		a.latched = true
		a.latchCause = fmt.Sprintf("process %s reported unhealthy", st.Proc)
		a.outages++
	}
}

// ReportOutage latches the cluster verdict with an explicit cause (a
// world-lost event, a supervisor failure). Latching while already latched
// keeps the first cause.
func (a *Aggregator) ReportOutage(cause string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.latched {
		a.latched = true
		a.latchCause = cause
		a.outages++
	}
}

// Rearm clears the latch: the cluster is healthy again once every process's
// own verdict is (a recovered world re-arms per-process health too).
func (a *Aggregator) Rearm() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.latched {
		a.latched = false
		a.latchCause = ""
		a.rearms++
	}
}

// ObserveJournal subscribes the aggregator to a journal: world-lost and
// world-failed events latch the cluster verdict, recovered events re-arm it.
// This is how the supervisor's kill -9 detection reaches /cluster/healthz
// without the aggregator polling anything.
func (a *Aggregator) ObserveJournal(j *Journal) {
	j.Observe(func(e Event) {
		switch e.Type {
		case EventWorldLost, EventWorldFailed, EventRunFailed:
			a.ReportOutage(fmt.Sprintf("%s (rank %d, incarnation %d)", e.Type, e.Rank, e.Incarnation))
		case EventRecovered:
			a.Rearm()
		}
	})
}

// Healthy reports the cluster verdict: not latched and every process's own
// verdict healthy.
func (a *Aggregator) Healthy() bool {
	return a.Verdict().Healthy
}

// Verdict assembles the cluster verdict served by /cluster/healthz,
// processes sorted by proc id.
func (a *Aggregator) Verdict() ClusterVerdict {
	a.mu.Lock()
	now := a.now()
	v := ClusterVerdict{
		Status:     "healthy",
		Healthy:    !a.latched,
		Latched:    a.latched,
		LatchCause: a.latchCause,
		Outages:    a.outages,
		Rearms:     a.rearms,
	}
	for _, e := range a.procs {
		pv := ProcessVerdict{
			Proc:        e.st.Proc,
			Ranks:       e.st.Ranks,
			Incarnation: e.st.Incarnation,
			Transport:   e.st.Transport,
			Healthy:     e.st.Verdict.Healthy,
			AgeS:        now.Sub(e.seen).Seconds(),
			Verdict:     e.st.Verdict,
		}
		if !pv.Healthy {
			v.Healthy = false
		}
		v.Processes = append(v.Processes, pv)
	}
	a.mu.Unlock()
	sort.Slice(v.Processes, func(i, j int) bool { return v.Processes[i].Proc < v.Processes[j].Proc })
	if !v.Healthy {
		v.Status = "unhealthy"
	}
	return v
}

// Statuses returns the latest published status per process, sorted by proc
// id.
func (a *Aggregator) Statuses() []ProcessStatus {
	a.mu.Lock()
	out := make([]ProcessStatus, 0, len(a.procs))
	for _, e := range a.procs {
		out = append(out, e.st)
	}
	a.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Proc < out[j].Proc })
	return out
}

// procSnapshots folds each process's per-track snapshots into one synthetic
// snapshot on track proc — the unit of cross-process imbalance analysis
// (which rank/process straggles, not which track within one).
func procSnapshots(sts []ProcessStatus) []*telemetry.Snapshot {
	snaps := make([]*telemetry.Snapshot, len(sts))
	for i, st := range sts {
		cs := telemetry.Aggregate(st.Snapshots)
		s := &telemetry.Snapshot{
			Track:   st.Proc,
			Traffic: cs.Traffic,
			Stages:  make(map[string]telemetry.StageStats, len(cs.Stages)),
		}
		for _, g := range cs.Stages {
			s.Stages[g.Name] = telemetry.StageStats{Count: g.Count, Total: g.Total, Min: g.SpanMin, Max: g.SpanMax, Hops: g.Hops}
		}
		snaps[i] = s
	}
	return snaps
}

// Imbalance runs the straggler analyzer across processes: each process's
// snapshots fold into one synthetic track, so the attribution answers "which
// process straggles", complementing the per-process /imbalance endpoint's
// "which track within it".
func (a *Aggregator) Imbalance() []monitor.StageImbalance {
	return monitor.AnalyzeImbalance(procSnapshots(a.Statuses()))
}
