package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"nektarg/internal/monitor"
	"nektarg/internal/telemetry"
)

// ranksLabel renders a rank set as "0,1,2".
func ranksLabel(ranks []int) string {
	parts := make([]string, len(ranks))
	for i, r := range ranks {
		parts[i] = strconv.Itoa(r)
	}
	return strings.Join(parts, ",")
}

// WriteClusterMetrics renders the fleet state as Prometheus text exposition
// through the monitor's writer: cluster rollups (health latch, traffic sums,
// cross-process stage statistics and straggler attribution) plus per-process
// series labeled by proc id. Output is deterministic for a given input —
// processes, stages and stat families all sorted.
func WriteClusterMetrics(w io.Writer, namespace string, v ClusterVerdict, sts []ProcessStatus) error {
	e := monitor.NewExposition(w, namespace)
	bit := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	e.Value("_cluster_up", "Whether the fleet aggregator is serving.", "gauge", 1)
	e.Value("_cluster_processes", "Processes that have published a status.", "gauge", float64(len(sts)))
	e.Value("_cluster_healthy", "1 while no process is unhealthy and no outage is latched.", "gauge", bit(v.Healthy))
	e.Value("_cluster_latched", "1 while an outage latch holds /cluster/healthz at 503.", "gauge", bit(v.Latched))
	e.Value("_cluster_outages_total", "Cumulative outage latch events (world losses, unhealthy processes).", "counter", float64(v.Outages))
	e.Value("_cluster_rearms_total", "Times the cluster verdict re-armed after recovery.", "counter", float64(v.Rearms))

	// Per-process identity and health.
	e.Family("_process_info", "Process identity: rank set, incarnation, transport kind.", "gauge")
	for _, st := range sts {
		e.Sample([][2]string{
			{"incarnation", strconv.Itoa(st.Incarnation)},
			{"proc", st.Proc},
			{"ranks", ranksLabel(st.Ranks)},
			{"transport", st.Transport},
		}, 1)
	}
	e.Family("_process_healthy", "Each process's own health verdict.", "gauge")
	for _, pv := range v.Processes {
		e.Sample([][2]string{{"proc", pv.Proc}}, bit(pv.Healthy))
	}
	e.Family("_process_age_seconds", "Seconds since each process last published.", "gauge")
	for _, pv := range v.Processes {
		e.Sample([][2]string{{"proc", pv.Proc}}, pv.AgeS)
	}

	// Per-process stage rollups (each process's tracks folded into one).
	procSnaps := procSnapshots(sts)
	e.Family("_process_stage_seconds_total", "Cumulative stage seconds, per process (tracks folded).", "counter")
	for _, s := range procSnaps {
		for _, name := range s.StageNames() {
			e.Sample([][2]string{{"proc", s.Track}, {"stage", name}}, s.Stages[name].Total)
		}
	}
	e.Family("_process_stage_count_total", "Stage occurrences, per process.", "counter")
	for _, s := range procSnaps {
		for _, name := range s.StageNames() {
			e.Sample([][2]string{{"proc", s.Track}, {"stage", name}}, float64(s.Stages[name].Count))
		}
	}

	// Cross-process stage statistics, straggler attribution and traffic
	// (bytes counted once, at the sender, so the sum over processes is exact).
	cs := telemetry.Aggregate(procSnaps)
	e.StageRollup("_cluster_stage", "process", "fleet", cs)
	e.Traffic("_cluster_traffic", "Messages sent fleet-wide, by MCI level and operation.",
		"Payload bytes sent fleet-wide, by MCI level and operation.", &cs.Traffic)

	// Physics audit rollup: the fleet's worst latched conservation severity
	// (max over processes) and total budget violations (sum), derived from
	// the per-process audit stats so a single violating rank is visible at
	// the cluster level without scanning proc-labeled series.
	var auditWorst, auditViolations float64
	auditSeen := false
	for _, st := range sts {
		for _, s := range st.Stats {
			switch s.Name {
			case "audit_worst_severity":
				auditSeen = true
				if s.Value > auditWorst {
					auditWorst = s.Value
				}
			case "audit_violations_total":
				auditViolations += s.Value
			}
		}
	}
	if auditSeen {
		e.Value("_cluster_audit_worst_severity", "Worst latched physics-audit severity across the fleet (0 ok, 1 warn, 2 critical).", "gauge", auditWorst)
		e.Value("_cluster_audit_violations_total", "Physics-audit budget violations latched fleet-wide.", "counter", auditViolations)
	}

	// Per-process extra stats (transport counters): each sample gains a proc
	// label; families grouped by stable-sorting on name.
	var extras []monitor.Stat
	for _, st := range sts {
		for _, s := range st.Stats {
			s.Labels = append([][2]string{{"proc", st.Proc}}, s.Labels...)
			extras = append(extras, s)
		}
	}
	sort.SliceStable(extras, func(i, j int) bool { return extras[i].Name < extras[j].Name })
	e.Stats(extras)
	return e.Err()
}

// Handler returns the fleet aggregation HTTP surface:
//
//	GET  /                  tiny plain-text index
//	GET  /cluster/metrics   Prometheus exposition: per-process + rollup series
//	GET  /cluster/healthz   cluster verdict JSON; 503 while latched/unhealthy
//	GET  /cluster/imbalance cross-process straggler attribution (text table)
//	GET  /cluster/history   per-process performance-history documents keyed
//	                        by proc id (JSON; processes without a history
//	                        plane are omitted)
//	POST /cluster/publish   ProcessStatus JSON ingest (what Publisher sends)
//	GET  /events            the run-event journal as JSON (404 without one)
//
// j may be nil (no journal wired); /events then 404s.
func (a *Aggregator) Handler(namespace string, j *Journal) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "nektarg fleet aggregator\n\nGET  /cluster/metrics\nGET  /cluster/healthz\nGET  /cluster/imbalance\nGET  /cluster/history\nPOST /cluster/publish\nGET  /events\n")
	})
	mux.HandleFunc("/cluster/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteClusterMetrics(w, namespace, a.Verdict(), a.Statuses()) //nolint:errcheck // client went away
	})
	mux.HandleFunc("/cluster/healthz", func(w http.ResponseWriter, r *http.Request) {
		v := a.Verdict()
		w.Header().Set("Content-Type", "application/json")
		if !v.Healthy {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(v) //nolint:errcheck // client went away
	})
	mux.HandleFunc("/cluster/imbalance", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, monitor.FormatImbalanceTable(a.Imbalance()))
	})
	mux.HandleFunc("/cluster/history", func(w http.ResponseWriter, r *http.Request) {
		// {proc: historyDoc, ...} — processes that published without a
		// history plane are omitted rather than mapped to null, so the body
		// is exactly the fleet's available history.
		out := map[string]json.RawMessage{}
		for _, st := range a.Statuses() {
			if len(st.History) > 0 {
				out[st.Proc] = st.History
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(out) //nolint:errcheck // client went away
	})
	mux.HandleFunc("/cluster/publish", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST a ProcessStatus JSON body", http.StatusMethodNotAllowed)
			return
		}
		var st ProcessStatus
		if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(&st); err != nil {
			http.Error(w, "bad ProcessStatus: "+err.Error(), http.StatusBadRequest)
			return
		}
		if st.Proc == "" {
			http.Error(w, "ProcessStatus.proc must be set", http.StatusBadRequest)
			return
		}
		// Stat names, types and label names go into /cluster/metrics as
		// written; values, HELP and label values are escaped by the writer.
		for _, s := range st.Stats {
			if err := s.Validate(); err != nil {
				http.Error(w, "bad ProcessStatus: "+err.Error(), http.StatusBadRequest)
				return
			}
		}
		a.Report(st)
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		if j == nil {
			http.Error(w, "no journal wired", http.StatusNotFound)
			return
		}
		events, err := j.Events()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(events) //nolint:errcheck // client went away
	})
	return mux
}

// Serve starts the aggregator's HTTP surface on addr and returns once the
// listener is bound. Close the returned server to stop.
func (a *Aggregator) Serve(addr, namespace string, j *Journal) (*monitor.Server, error) {
	return monitor.Serve(addr, a.Handler(namespace, j))
}
