package telemetry

import (
	"encoding/json"
	"io"
	"time"
)

// traceEvent is one Chrome trace_event entry. Complete events ("X") carry ts
// and dur in microseconds; metadata events ("M") name the tracks. The format
// is consumed by chrome://tracing and Perfetto's legacy importer.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the JSON object format of the trace_event spec.
type traceFile struct {
	TraceEvents     []traceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// spanCategory derives the Chrome "cat" from a span name's dotted prefix
// ("ns.pressure" -> "ns"), so Perfetto can filter per subsystem.
func spanCategory(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}

// TraceMeta identifies the process a Chrome trace was exported from. The
// trace-merge pass (internal/fleet) relies on it to label stitched timelines
// "rank/incarnation" and to scope hop-clock ordering constraints to one world
// incarnation (hop clocks restart from zero when a world is redialed).
type TraceMeta struct {
	Rank        int    // world rank the spans belong to
	Incarnation int    // world incarnation the spans were recorded under
	Transport   string // transport kind ("local", "tcp", ...)
}

// WriteChromeTrace serializes every recorder's buffered spans as Chrome
// trace_event JSON: one process, one thread row per track (rank / patch /
// region), complete "X" events with hop-clock deltas in args. Load the file
// in chrome://tracing or https://ui.perfetto.dev.
func WriteChromeTrace(w io.Writer, recs []*Recorder) error {
	return WriteChromeTraceTagged(w, recs, nil)
}

// WriteChromeTraceTagged is WriteChromeTrace plus the cross-process stitching
// contract: otherData carries the registry epoch as epoch_unix_ns (the wall
// clock instant span ts 0 corresponds to) and, when meta is non-nil, the
// rank / incarnation / transport identity; every span with hop-clock data
// additionally carries absolute h0/h1 hop values in args so a merge pass can
// causally order spans from different processes.
func WriteChromeTraceTagged(w io.Writer, recs []*Recorder, meta *TraceMeta) error {
	tf := traceFile{
		DisplayTimeUnit: "ms",
		OtherData: map[string]any{
			"generator": "nektarg telemetry",
			"written":   time.Now().Format(time.RFC3339),
		},
	}
	for _, r := range recs {
		if r == nil {
			continue
		}
		if _, ok := tf.OtherData["epoch_unix_ns"]; !ok {
			tf.OtherData["epoch_unix_ns"] = r.epoch.UnixNano()
		}
		tf.TraceEvents = append(tf.TraceEvents, traceEvent{
			Name: "thread_name", Ph: "M", PID: 0, TID: r.tid,
			Args: map[string]any{"name": r.track},
		}, traceEvent{
			Name: "thread_sort_index", Ph: "M", PID: 0, TID: r.tid,
			Args: map[string]any{"sort_index": r.tid},
		})
		for _, sp := range r.Spans(0) {
			ev := traceEvent{
				Name: sp.Name,
				Cat:  spanCategory(sp.Name),
				Ph:   "X",
				TS:   float64(sp.Start) / 1e3, // ns -> µs
				Dur:  float64(sp.Dur) / 1e3,
				PID:  0,
				TID:  r.tid,
			}
			if sp.Hops0 != 0 || sp.Hops1 != 0 {
				ev.Args = map[string]any{"h0": sp.Hops0, "h1": sp.Hops1}
				if sp.Hops1 != sp.Hops0 {
					ev.Args["hops"] = sp.Hops1 - sp.Hops0
				}
			}
			tf.TraceEvents = append(tf.TraceEvents, ev)
		}
	}
	if meta != nil {
		tf.OtherData["rank"] = meta.Rank
		tf.OtherData["incarnation"] = meta.Incarnation
		tf.OtherData["transport"] = meta.Transport
	}
	enc := json.NewEncoder(w)
	return enc.Encode(tf)
}

// Summary is the machine-readable telemetry.json artifact: the cluster
// aggregate plus per-track snapshots, stamped with a wall-clock time.
type Summary struct {
	Written string        `json:"written"`
	Cluster *ClusterStats `json:"cluster"`
	Tracks  []*Snapshot   `json:"tracks"`
}

// WriteSummary aggregates the recorders and writes the indented JSON summary.
func WriteSummary(w io.Writer, recs []*Recorder) error {
	snaps := make([]*Snapshot, 0, len(recs))
	for _, r := range recs {
		if s := r.Snapshot(); s != nil {
			snaps = append(snaps, s)
		}
	}
	sum := Summary{
		Written: time.Now().Format(time.RFC3339),
		Cluster: Aggregate(snaps),
		Tracks:  snaps,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sum)
}
