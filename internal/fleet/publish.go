package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nektarg/internal/history"
	"nektarg/internal/monitor"
	"nektarg/internal/mpi"
	"nektarg/internal/mpi/tcptransport"
	"nektarg/internal/telemetry"
)

// Publisher ships one process's observability state to a fleet aggregator:
// a ProcessStatus per publish, POSTed to <aggregator>/cluster/publish. A nil
// *Publisher is the disabled plane — OnExchange, the per-exchange hook the
// supervisor wiring calls unconditionally, is then one nil check and zero
// allocations (pinned by TestFleetDisabledZeroCost).
type Publisher struct {
	url    string
	client *http.Client
	mon    *monitor.Monitor
	hist   *history.Plane
	proc   string
	ranks  []int
	kind   string // transport kind
	j      *Journal
}

// NewPublisher builds a publisher POSTing to aggregatorURL (base URL, e.g.
// "http://host:9190"). mon supplies snapshots, the health verdict and extra
// stats; hist (nil when the run keeps no history) the compact history
// document; j (optional) the incarnation id.
func NewPublisher(aggregatorURL string, mon *monitor.Monitor, hist *history.Plane, proc string, ranks []int, transport string, j *Journal) *Publisher {
	return &Publisher{
		url:    aggregatorURL,
		client: &http.Client{Timeout: 5 * time.Second},
		mon:    mon,
		hist:   hist,
		proc:   proc,
		ranks:  append([]int(nil), ranks...),
		kind:   transport,
		j:      j,
	}
}

// Status assembles the ProcessStatus a publish would send.
func (p *Publisher) Status() ProcessStatus {
	if p == nil {
		return ProcessStatus{}
	}
	st := ProcessStatus{
		Proc:        p.proc,
		Ranks:       append([]int(nil), p.ranks...),
		Incarnation: p.j.Incarnation(),
		Transport:   p.kind,
		TimeUnixNs:  time.Now().UnixNano(),
		Snapshots:   p.mon.Snapshots(),
		Verdict:     p.mon.Health().Verdict(),
		Stats:       p.mon.Stats(),
	}
	// Embed a compact history document (auto-tiered, newest 64 points per
	// series) when the run keeps history, so /cluster/history can show
	// fleet-wide step-time and anomaly state without scraping each process.
	if doc, err := p.hist.HistoryJSON("", -1, 64); err == nil && json.Valid(doc) {
		st.History = doc
	}
	return st
}

// PublishNow builds and POSTs one ProcessStatus. Network errors are returned
// but safe to ignore — the aggregator keeps serving the last good status.
func (p *Publisher) PublishNow() error {
	if p == nil {
		return nil
	}
	body, err := json.Marshal(p.Status())
	if err != nil {
		return fmt.Errorf("fleet: publish marshal: %w", err)
	}
	resp, err := p.client.Post(p.url+"/cluster/publish", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("fleet: publish: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("fleet: publish: aggregator returned %s", resp.Status)
	}
	return nil
}

// OnExchange is the supervisor-side hook, called after every committed
// exchange. On a nil publisher it is one pointer comparison; enabled, it
// publishes (errors are dropped — publishing is best-effort by design).
func (p *Publisher) OnExchange(exchange int) {
	if p == nil {
		return
	}
	p.PublishNow() //nolint:errcheck // best-effort: the aggregator serves the last good status
}

// Start publishes every interval on a background goroutine until the
// returned stop function is called — for processes whose exchange cadence is
// too slow or bursty for per-exchange publishing alone.
func (p *Publisher) Start(interval time.Duration) (stop func()) {
	if p == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				p.PublishNow() //nolint:errcheck // best-effort
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// TCPStats adapts a chain of TCP transport incarnations into one cumulative
// counter set. Wrap the supervisor's Dial with it: each redial folds the
// dead incarnation's counters into the base, so frames/bytes/redials survive
// world rebuilds, and Source exposes the running totals as monitor.Stats.
type TCPStats struct {
	mu   sync.Mutex
	cur  *tcptransport.Transport
	base tcptransport.Stats
}

// Wrap decorates dial so the holder always tracks the live transport.
func (h *TCPStats) Wrap(dial func() (*tcptransport.Transport, error)) func() (mpi.Transport, error) {
	return func() (mpi.Transport, error) {
		tr, err := dial()
		if err != nil {
			return nil, err
		}
		h.mu.Lock()
		if h.cur != nil {
			h.base.Add(h.cur.Stats()) // fold the dead incarnation's counters
		}
		h.cur = tr
		h.mu.Unlock()
		return tr, nil
	}
}

// Stats returns the cumulative counters: every dead incarnation's plus the
// live transport's.
func (h *TCPStats) Stats() tcptransport.Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.base
	s.Peers = append([]tcptransport.PeerStats(nil), h.base.Peers...)
	if h.cur != nil {
		s.Add(h.cur.Stats())
	}
	return s
}

// Source returns a monitor stat source exposing the transport counters:
// per-peer frames/bytes sent+received, dial attempts and redials, rendezvous
// and per-peer handshake latency, and FIN-vs-EOF close counts.
func (h *TCPStats) Source() func() []monitor.Stat {
	return func() []monitor.Stat {
		s := h.Stats()
		out := []monitor.Stat{
			{Name: "transport_dial_attempts_total", Help: "TCP dial attempts across all world incarnations.", Type: "counter", Value: float64(s.DialAttempts)},
			{Name: "transport_redials_total", Help: "TCP dial retries beyond the first attempt per peer.", Type: "counter", Value: float64(s.Redials)},
			{Name: "transport_rendezvous_seconds", Help: "Wall time the last completed rendezvous took.", Type: "gauge", Value: float64(s.RendezvousNs) / 1e9},
			{Name: "transport_fin_closes_total", Help: "Peer streams that ended with a graceful FIN.", Type: "counter", Value: float64(s.FinCloses)},
			{Name: "transport_eof_closes_total", Help: "Peer streams that died without FIN (dead peer).", Type: "counter", Value: float64(s.EOFCloses)},
		}
		for _, pc := range s.Peers {
			peer := [][2]string{{"peer", strconv.Itoa(pc.Peer)}}
			out = append(out,
				monitor.Stat{Name: "transport_frames_sent_total", Help: "Frames sent per peer (FIN frames included).", Type: "counter", Labels: peer, Value: float64(pc.FramesSent)},
				monitor.Stat{Name: "transport_bytes_sent_total", Help: "Wire bytes sent per peer (headers included).", Type: "counter", Labels: peer, Value: float64(pc.BytesSent)},
				monitor.Stat{Name: "transport_frames_received_total", Help: "Frames received per peer.", Type: "counter", Labels: peer, Value: float64(pc.FramesRecv)},
				monitor.Stat{Name: "transport_bytes_received_total", Help: "Wire bytes received per peer.", Type: "counter", Labels: peer, Value: float64(pc.BytesRecv)},
				monitor.Stat{Name: "transport_handshake_seconds", Help: "Rendezvous handshake latency per peer.", Type: "gauge", Labels: peer, Value: float64(pc.HandshakeNs) / 1e9},
			)
		}
		return out
	}
}

// DropLedger journals in-situ drop-ledger milestones: the first dropped
// piece, then every doubling of the drop count — bounded log volume however
// long the run, but the journal still shows when pressure started and how it
// grew. src returns the pipeline's (published, delivered, dropped) counters.
type DropLedger struct {
	j    *Journal
	src  func() (published, delivered, dropped int64)
	next atomic.Int64 // next drop count worth journaling
}

// NewDropLedger builds a ledger; nil is the disabled ledger.
func NewDropLedger(j *Journal, src func() (published, delivered, dropped int64)) *DropLedger {
	l := &DropLedger{j: j, src: src}
	l.next.Store(1)
	return l
}

// Check journals a milestone event if the drop count crossed the next
// threshold. Call it per exchange; on a nil ledger it is one nil check.
func (l *DropLedger) Check() {
	if l == nil {
		return
	}
	published, delivered, dropped := l.src()
	next := l.next.Load()
	if dropped < next {
		return
	}
	for next <= dropped {
		next *= 2
	}
	l.next.Store(next)
	l.j.Record(EventInsituDrops, map[string]any{
		"published": published,
		"delivered": delivered,
		"dropped":   dropped,
	})
}

// TraceWriter maintains the per-incarnation Chrome trace files of one
// process in a distributed run. Each WriteNow atomically rewrites
// <base>-rank<R>-inc<I>.json with the current incarnation's spans. At every
// incarnation-start journal event the writer clears the span rings — the
// supervisor records that event after redialing and before the world body
// runs, so a trace file never carries spans whose hop clock belongs to an
// earlier world (hop clocks restart at zero on redial); aggregates are
// untouched. Because the file is rewritten every exchange, a kill -9 leaves
// the dead incarnation's trace on disk up to its last completed exchange —
// which is what lets the merged timeline show both incarnations of a killed
// rank.
type TraceWriter struct {
	dir  string
	base string
	rank int
	kind string
	recs func() []*telemetry.Recorder
	j    *Journal
	mu   sync.Mutex
}

// NewTraceWriter builds a writer placing trace files under dir, named
// <base>-rank<R>-inc<I>.json. recs supplies the recorders to export; j
// supplies the incarnation id (nil journal pins incarnation 0) and the
// incarnation-boundary reset trigger.
func NewTraceWriter(dir, base string, rank int, transport string, recs func() []*telemetry.Recorder, j *Journal) *TraceWriter {
	if base == "" {
		base = "trace"
	}
	tw := &TraceWriter{dir: dir, base: base, rank: rank, kind: transport, recs: recs, j: j}
	j.Observe(func(e Event) {
		if e.Type == EventIncarnationStart {
			for _, r := range tw.recs() {
				r.ResetSpans()
			}
		}
	})
	return tw
}

// WriteNow exports the current spans to the incarnation's trace file
// (atomic tmp+rename). Nil-safe.
func (tw *TraceWriter) WriteNow() error {
	if tw == nil {
		return nil
	}
	tw.mu.Lock()
	defer tw.mu.Unlock()
	inc := tw.j.Incarnation()
	recs := tw.recs()
	if err := os.MkdirAll(tw.dir, 0o755); err != nil {
		return fmt.Errorf("fleet: trace dir: %w", err)
	}
	path := filepath.Join(tw.dir, fmt.Sprintf("%s-rank%d-inc%d.json", tw.base, tw.rank, inc))
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("fleet: trace write: %w", err)
	}
	meta := &telemetry.TraceMeta{Rank: tw.rank, Incarnation: inc, Transport: tw.kind}
	if err := telemetry.WriteChromeTraceTagged(f, recs, meta); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("fleet: trace write: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("fleet: trace write: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("fleet: trace write: %w", err)
	}
	return nil
}
