package monitor

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Handler returns the monitor's HTTP surface:
//
//	GET  /            plain-text index of the mounted routes
//	GET  /metrics     Prometheus text exposition (stage seconds, traffic
//	                  bytes by level×op, solver gauges, per-stage imbalance,
//	                  every attached plane's stats)
//	GET  /healthz     JSON verdict; 200 while healthy, 503 once a watchdog
//	                  has tripped
//	GET  /imbalance   FormatImbalanceTable report (text)
//	GET  /buildinfo   binary provenance (module version, VCS revision, toolchain)
//	POST /flight      trigger a manual flight dump; returns the path
//	GET  /debug/pprof/*  live profiling (pprof index, profile, trace, ...)
//
// plus the routes of every attached plane (see Attach): /audit from the
// audit ledger, /history and /anomalies from the history plane, /snapshot
// and /snapshot/vtk from the in-situ observer. Each answers 404 until its
// plane is attached.
func (m *Monitor) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			if h := m.route(r.URL.Path); h != nil {
				h(w, r)
				return
			}
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "nektarg monitor\n\nGET  /metrics\nGET  /healthz\nGET  /imbalance\nGET  /buildinfo\nPOST /flight\nGET  /debug/pprof/\n")
		for _, path := range m.mounted() {
			fmt.Fprintf(w, "GET  %s\n", path)
		}
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
	mux.HandleFunc("/imbalance", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, FormatImbalanceTable(m.Imbalance()))
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

// JSONHandler serves the document doc renders for each request as
// application/json; an error answers 500 with its message.
func JSONHandler(doc func(r *http.Request) ([]byte, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		b, err := doc(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b) //nolint:errcheck // client went away
	}
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
