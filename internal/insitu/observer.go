package insitu

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"nektarg/internal/geometry"
	"nektarg/internal/monitor"
	"nektarg/internal/telemetry"
	"nektarg/internal/viz"
)

// ObserverConfig shapes frame assembly and the rolling on-disk series.
type ObserverConfig struct {
	// Sources are the labels a complete frame must carry (ExpectedSources).
	Sources []string
	// Dir, when non-empty, receives a rolling VTK time series: one file per
	// piece per frame, pruned to the newest DefaultKeep frames.
	Dir string
	// Rec, when non-nil, receives insitu.* gauges (frames, staleness,
	// delivered, abandoned) surfaced through telemetry snapshots and the
	// monitor's Prometheus page.
	Rec *telemetry.Recorder
}

// DefaultKeep is the rolling series length.
const DefaultKeep = 4

// Observer consumes snapshot pieces, assembles causally consistent frames,
// maintains the latest frame for HTTP serving and optionally writes a rolling
// VTK series. It is a monitor.Plane: Attach mounts /snapshot and
// /snapshot/vtk.
type Observer struct {
	cfg ObserverConfig

	mu     sync.Mutex
	asm    *Assembler
	latest *Frame
	files  map[int][]string // step -> files written, for pruning
	steps  []int            // written steps in emission order
	wErr   error            // first disk-write error (latched, reported in meta)
	stats  func() Stats     // transport accounting source, optional
}

// NewObserver builds an observer. Call SetStatsSource to surface transport
// drop accounting in SnapshotMeta.
func NewObserver(cfg ObserverConfig) *Observer {
	return &Observer{
		cfg:   cfg,
		asm:   NewAssembler(cfg.Sources, DefaultHorizon),
		files: make(map[int][]string),
	}
}

// SetStatsSource wires the transport's drop accounting (Queue.Stats) into
// SnapshotMeta.
func (o *Observer) SetStatsSource(fn func() Stats) {
	o.mu.Lock()
	o.stats = fn
	o.mu.Unlock()
}

// Run drains the queue until it is closed and empty, consuming every piece.
// It is the observer goroutine's main loop for the in-process transport.
func (o *Observer) Run(q *Queue) {
	for {
		p, ok := q.Take()
		if !ok {
			return
		}
		o.Consume(p)
	}
}

// Consume offers one piece to the assembler; a completed frame becomes the
// latest, goes to disk (when Dir is set) and updates the gauges.
func (o *Observer) Consume(p *Piece) {
	o.mu.Lock()
	f := o.asm.Add(p)
	if f != nil {
		o.latest = f
		if o.cfg.Dir != "" {
			o.writeFrameLocked(f)
		}
	}
	st := o.asm.Stats()
	stats := o.stats
	o.mu.Unlock()
	if r := o.cfg.Rec; r != nil {
		if f != nil {
			r.Gauge("insitu.frames", float64(st.Frames))
		}
		r.Gauge("insitu.staleness", float64(st.Staleness))
		r.Gauge("insitu.abandoned", float64(st.Abandoned))
		// Mirror the transport counters so the Prometheus exposition can
		// render <ns>_insitu_*_total without extra plumbing.
		if stats != nil {
			ts := stats()
			r.Gauge("insitu.published", float64(ts.Published))
			r.Gauge("insitu.delivered", float64(ts.Delivered))
			r.Gauge("insitu.dropped", float64(ts.Dropped))
			r.Gauge("insitu.bytes", float64(ts.Bytes))
		}
	}
}

// AssemblerStats returns a copy of the assembly accounting.
func (o *Observer) AssemblerStats() AssemblerStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.asm.Stats()
}

// Meta is the JSON document served at /snapshot: the latest frame's identity
// plus the full drop/staleness accounting.
type Meta struct {
	HasFrame  bool           `json:"has_frame"`
	Step      int            `json:"step"`
	Time      float64        `json:"time"`
	Sources   []string       `json:"sources"`
	Assembly  AssemblerStats `json:"assembly"`
	Transport *Stats         `json:"transport,omitempty"`
	WriteErr  string         `json:"write_err,omitempty"`
}

// Routes serves the observer on the monitor: GET /snapshot is the
// SnapshotMeta document, GET /snapshot/vtk the latest frame as SnapshotVTK
// writes it, 503 before the first frame assembles.
func (o *Observer) Routes() map[string]http.HandlerFunc {
	return map[string]http.HandlerFunc{
		"/snapshot": monitor.JSONHandler(func(*http.Request) ([]byte, error) { return o.SnapshotMeta() }),
		"/snapshot/vtk": func(w http.ResponseWriter, r *http.Request) {
			// Buffer first: SnapshotVTK's only error before any bytes flow
			// is "no frame yet", which must map to 503, and headers are
			// immutable once the body starts.
			var buf bytes.Buffer
			if err := o.SnapshotVTK(&buf); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			buf.WriteTo(w) //nolint:errcheck // client went away
		},
	}
}

// Stats is the monitor.Plane metric bridge. The observer has none of its
// own: its accounting rides the insitu.* gauges of its recorder, which the
// exposition renders as the nektarg_insitu_* families.
func (o *Observer) Stats() []monitor.Stat { return nil }

// SnapshotMeta returns the latest frame's metadata and gauges as JSON — the
// monitor's /snapshot payload.
func (o *Observer) SnapshotMeta() ([]byte, error) {
	o.mu.Lock()
	m := Meta{Assembly: o.asm.Stats()}
	if o.latest != nil {
		m.HasFrame = true
		m.Step = o.latest.Step
		m.Time = o.latest.Time
		m.Sources = o.latest.Sources()
	}
	if o.wErr != nil {
		m.WriteErr = o.wErr.Error()
	}
	stats := o.stats
	o.mu.Unlock()
	if stats != nil {
		st := stats()
		m.Transport = &st
	}
	return json.MarshalIndent(&m, "", "  ")
}

// SnapshotVTK streams the latest frame as a concatenation of legacy VTK
// documents, one per piece, separated by comment banners (legacy VTK is one
// dataset per file; consumers split on the banner). The monitor's
// /snapshot/vtk handler calls this. Returns an error before the first frame.
func (o *Observer) SnapshotVTK(w io.Writer) error {
	o.mu.Lock()
	f := o.latest
	o.mu.Unlock()
	if f == nil {
		return fmt.Errorf("insitu: no frame assembled yet")
	}
	for i, p := range f.Pieces {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# === insitu piece %s (step %d) ===\n", p.Source, p.Step); err != nil {
			return err
		}
		if err := writePieceVTK(w, p); err != nil {
			return err
		}
	}
	return nil
}

// writePieceVTK renders one piece through the shared viz writers.
func writePieceVTK(w io.Writer, p *Piece) error {
	title := fmt.Sprintf("insitu %s step %d t=%g", p.Source, p.Step, p.Time)
	switch {
	case p.Continuum != nil:
		s := p.Continuum
		return viz.WriteStructuredSlab(w, title, s.X, s.Y, s.Z, s.U, s.V, s.W, s.Pr, s.Origin)
	case p.Particles != nil:
		c := p.Particles
		return viz.WritePointCloud(w, title, c.Pos, c.Vel, c.Species)
	case p.Surface != nil:
		surf := &geometry.Surface{Name: p.Surface.Name, Triangles: p.Surface.Tris}
		return viz.WriteSurface(w, title, surf, nil)
	default:
		return fmt.Errorf("insitu: piece %q carries no payload", p.Source)
	}
}

// writeFrameLocked writes one frame to the rolling series and prunes beyond
// DefaultKeep. Disk errors are latched into wErr (reported via SnapshotMeta) and
// never propagate to the pipeline: a full disk must not kill observation.
func (o *Observer) writeFrameLocked(f *Frame) {
	var names []string
	for _, p := range f.Pieces {
		name := filepath.Join(o.cfg.Dir, fmt.Sprintf("frame-%06d-%s.vtk", f.Step, sanitize(p.Source)))
		if err := writePieceFile(name, p); err != nil {
			if o.wErr == nil {
				o.wErr = err
			}
			continue
		}
		names = append(names, name)
	}
	o.files[f.Step] = names
	o.steps = append(o.steps, f.Step)
	for len(o.steps) > DefaultKeep {
		old := o.steps[0]
		o.steps = o.steps[1:]
		for _, n := range o.files[old] {
			os.Remove(n)
		}
		delete(o.files, old)
	}
}

// writePieceFile writes one piece to its own VTK file.
func writePieceFile(name string, p *Piece) error {
	fh, err := os.Create(name)
	if err != nil {
		return err
	}
	err = writePieceVTK(fh, p)
	if cerr := fh.Close(); err == nil {
		err = cerr
	}
	return err
}

// sanitize maps a source label to a filename fragment.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case ':', '/', '\\', ' ':
			return '-'
		}
		return r
	}, s)
}
