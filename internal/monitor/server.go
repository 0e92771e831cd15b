package monitor

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// Handler returns the monitor's HTTP surface:
//
//	GET  /            tiny plain-text index
//	GET  /metrics     Prometheus text exposition (stage seconds, traffic
//	                  bytes by level×op, solver gauges, per-stage imbalance)
//	GET  /healthz     JSON verdict; 200 while healthy, 503 once a watchdog
//	                  has tripped
//	GET  /imbalance   FormatImbalanceTable report (text)
//	GET  /snapshot    latest in-situ frame metadata + drop/staleness gauges
//	                  (JSON; 404 until an in-situ source is wired, 503 before
//	                  the first frame assembles)
//	GET  /snapshot/vtk  latest assembled frame as concatenated legacy VTK
//	                  documents, one per piece, split on "# === insitu piece"
//	                  banners
//	GET  /history     performance-history time series (JSON; query params
//	                  series= name-prefix filter, tier= downsample level,
//	                  max= newest-N truncation; 404 until a history source
//	                  is wired)
//	GET  /anomalies   detected performance anomalies with per-kind totals
//	                  (JSON; 404 until a history source is wired)
//	GET  /buildinfo   binary provenance (module version, VCS revision, toolchain)
//	POST /flight      trigger a manual flight dump; returns the path
//	GET  /debug/pprof/*  live profiling (pprof index, profile, trace, ...)
func (m *Monitor) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "nektarg monitor\n\nGET  /metrics\nGET  /healthz\nGET  /audit\nGET  /imbalance\nGET  /history\nGET  /anomalies\nGET  /snapshot\nGET  /snapshot/vtk\nGET  /buildinfo\nPOST /flight\nGET  /debug/pprof/\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// On error the headers are gone and nothing is recoverable: the
		// scraper sees a truncated body and retries.
		WriteMetrics(w, m.Snapshots(), m.Stats(), m.health) //nolint:errcheck
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		v := m.health.Verdict()
		w.Header().Set("Content-Type", "application/json")
		if !v.Healthy {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(v) //nolint:errcheck // client went away
	})
	mux.HandleFunc("/audit", func(w http.ResponseWriter, r *http.Request) {
		src := m.auditSource()
		if src == nil {
			http.Error(w, "no audit ledger wired (run without -audit?)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		src.WriteJSON(w) //nolint:errcheck // client went away
	})
	mux.HandleFunc("/history", func(w http.ResponseWriter, r *http.Request) {
		src := m.HistorySource()
		if src == nil {
			http.Error(w, "no history plane wired (run without -history?)", http.StatusNotFound)
			return
		}
		q := r.URL.Query()
		tier := queryInt(q.Get("tier"), -1)
		max := queryInt(q.Get("max"), 512)
		doc, err := src.HistoryJSON(q.Get("series"), tier, max)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(doc) //nolint:errcheck // client went away
	})
	mux.HandleFunc("/anomalies", func(w http.ResponseWriter, r *http.Request) {
		src := m.HistorySource()
		if src == nil {
			http.Error(w, "no history plane wired (run without -history?)", http.StatusNotFound)
			return
		}
		doc, err := src.AnomaliesJSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(doc) //nolint:errcheck // client went away
	})
	mux.HandleFunc("/imbalance", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, FormatImbalanceTable(m.Imbalance()))
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		src := m.snapshotSource()
		if src == nil {
			http.Error(w, "no in-situ source wired (run without -insitu?)", http.StatusNotFound)
			return
		}
		meta, err := src.SnapshotMeta()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(meta) //nolint:errcheck // client went away
	})
	mux.HandleFunc("/snapshot/vtk", func(w http.ResponseWriter, r *http.Request) {
		src := m.snapshotSource()
		if src == nil {
			http.Error(w, "no in-situ source wired (run without -insitu?)", http.StatusNotFound)
			return
		}
		// Buffer first: SnapshotVTK's only error before any bytes flow is
		// "no frame yet", which must map to 503, and headers are immutable
		// once the body starts.
		var buf bytes.Buffer
		if err := src.SnapshotVTK(&buf); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		buf.WriteTo(w) //nolint:errcheck // client went away
	})
	mux.HandleFunc("/buildinfo", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		ReadBuildInfo().WriteJSON(w) //nolint:errcheck // client went away
	})
	mux.HandleFunc("/flight", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST to trigger a flight dump", http.StatusMethodNotAllowed)
			return
		}
		path, err := m.flight.Dump("manual", nil)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if path == "" {
			http.Error(w, "flight dump limit reached for this run", http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, path)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// queryInt parses an optional integer query parameter, falling back to def
// on absence or garbage.
func queryInt(s string, def int) int {
	if s == "" {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return def
	}
	return n
}

// Server is a running HTTP endpoint: the listen/serve/Close wrapper behind
// Monitor.Serve and fleet's Aggregator.Serve.
type Server struct {
	Addr string // actual listen address (resolves ":0")
	srv  *http.Server
	done chan error
}

// Serve binds addr (e.g. ":9090", or ":0" for an ephemeral port) and serves
// h on a background goroutine; it returns once the listener is bound. Close
// the returned server to stop.
func Serve(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err // a *net.OpError: already "listen tcp <addr>: ..."
	}
	s := &Server{
		Addr: ln.Addr().String(),
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// Serve starts the monitor's HTTP surface on addr.
func (m *Monitor) Serve(addr string) (*Server, error) { return Serve(addr, m.Handler()) }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr }

// Close shuts the server down and waits for the serve loop to exit.
func (s *Server) Close() error {
	err := s.srv.Close()
	<-s.done
	return err
}
