package monitor

import (
	"context"
	"log/slog"
	"sync"
	"time"
)

// Severity grades a health event. SevCritical events flip the run verdict to
// unhealthy and fire the trip hook (flight recorder).
type Severity uint8

// Event severities, ordered: an event of a higher severity always dominates.
const (
	SevInfo Severity = iota
	SevWarn
	SevCritical
)

// String returns the severity's display name.
func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarn:
		return "warn"
	case SevCritical:
		return "critical"
	default:
		return "?"
	}
}

// Event is one structured health record produced by a watchdog: the unit the
// /healthz verdict, the flight recorder and the slog stream all share.
type Event struct {
	Seq      int64     `json:"seq"`
	Time     time.Time `json:"time"`
	Watchdog string    `json:"watchdog"` // "nan-guard", "cg-watch", "cfl-watch", "particle-drift", ...
	Track    string    `json:"track"`    // rank/patch/region track name
	Severity Severity  `json:"severity"`
	Message  string    `json:"message"`
	Value    float64   `json:"value"` // the offending scalar (residual, ratio, CFL, ...)
}

// DefaultEventCap bounds the health event ring; watchdogs latch on state
// transitions so the ring comfortably outlives any realistic run, but a
// misbehaving probe cannot grow memory without bound either way.
const DefaultEventCap = 512

// Health is the cluster-wide health state: a bounded ring of structured
// events plus per-(watchdog, severity) counters that never wrap. All methods
// are safe for concurrent use from solver goroutines and HTTP scrapes; a nil
// *Health (monitoring disabled) makes every method a cheap no-op.
type Health struct {
	mu      sync.Mutex
	start   time.Time
	events  []Event // ring once len == cap
	head    int
	cap     int
	dropped int64
	seq     int64
	counts  map[string][3]int64 // watchdog -> events per severity
	trips   int64               // cumulative critical events
	cleared int64               // trips acknowledged by Rearm; healthy = trips == cleared
	rearms  int64               // number of Rearm calls
	onTrip  func(Event)         // flight-recorder hook; see Monitor
	onEvent func(Event)         // every-event mirror hook (fleet journal); see OnEvent
	log     *slog.Logger
}

// NewHealth creates an empty health state.
func NewHealth() *Health {
	return &Health{
		start:  time.Now(),
		cap:    DefaultEventCap,
		counts: map[string][3]int64{},
	}
}

// SetLogger mirrors every event into a structured log stream (Info/Warn/Error
// by severity) so log lines are joinable with the health timeline.
func (h *Health) SetLogger(l *slog.Logger) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.log = l
	h.mu.Unlock()
}

// OnTrip installs a hook invoked (outside the lock) for every critical event.
// The Monitor points it at the flight recorder.
func (h *Health) OnTrip(fn func(Event)) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.onTrip = fn
	h.mu.Unlock()
}

// OnEvent installs a hook invoked (outside the lock) for every event, of any
// severity. Watchdogs emit only on severity transitions, so the volume is
// bounded; the fleet journal uses this to make every transition durable.
func (h *Health) OnEvent(fn func(Event)) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.onEvent = fn
	h.mu.Unlock()
}

// Record appends one event, bumping the counters and firing the trip hook for
// critical severities. Safe on nil.
func (h *Health) Record(watchdog, track string, sev Severity, msg string, value float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.seq++
	e := Event{
		Seq: h.seq, Time: time.Now(), Watchdog: watchdog, Track: track,
		Severity: sev, Message: msg, Value: value,
	}
	if len(h.events) < h.cap {
		h.events = append(h.events, e)
	} else {
		h.events[h.head] = e
		h.head = (h.head + 1) % h.cap
		h.dropped++
	}
	c := h.counts[watchdog]
	c[sev]++
	h.counts[watchdog] = c
	if sev == SevCritical {
		h.trips++
	}
	hook := h.onTrip
	mirror := h.onEvent
	log := h.log
	h.mu.Unlock()

	if mirror != nil {
		mirror(e)
	}

	if log != nil {
		lvl := slog.LevelInfo
		switch sev {
		case SevWarn:
			lvl = slog.LevelWarn
		case SevCritical:
			lvl = slog.LevelError
		}
		log.Log(context.Background(), lvl, msg,
			"watchdog", watchdog, "track", track, "value", value, "seq", e.Seq)
	}
	if sev == SevCritical && hook != nil {
		hook(e)
	}
}

// Events returns the buffered events in chronological order.
func (h *Health) Events() []Event {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Event, 0, len(h.events))
	out = append(out, h.events[h.head:]...)
	out = append(out, h.events[:h.head]...)
	return out
}

// Healthy reports whether no watchdog has tripped since the last Rearm.
// Trips stay cumulative (Prometheus counters must never regress); Rearm moves
// the watermark the verdict is judged against.
func (h *Health) Healthy() bool {
	if h == nil {
		return true
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.trips == h.cleared
}

// Rearm acknowledges every critical event so far: /healthz returns to 200
// until the next trip. The recovery loop calls it after a checkpoint restore
// re-arms the solver watchdogs — a restored run is healthy again by
// construction, and leaving the verdict latched would page on ancient
// history. The acknowledgement is recorded as an info event so the timeline
// shows when (and how often) the run recovered.
func (h *Health) Rearm() {
	if h == nil {
		return
	}
	h.mu.Lock()
	acked := h.trips - h.cleared
	h.cleared = h.trips
	h.rearms++
	h.mu.Unlock()
	h.Record("health", "recovery", SevInfo,
		"health re-armed after recovery", float64(acked))
}

// Rearms returns how many times the health state has been re-armed.
func (h *Health) Rearms() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.rearms
}

// Trips returns the cumulative number of critical events.
func (h *Health) Trips() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.trips
}

// WatchdogCounts returns a copy of the per-watchdog severity counters.
func (h *Health) WatchdogCounts() map[string][3]int64 {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string][3]int64, len(h.counts))
	for k, v := range h.counts {
		out[k] = v
	}
	return out
}

// Verdict is the JSON body served by /healthz.
type Verdict struct {
	Status   string              `json:"status"` // "healthy" | "unhealthy"
	Healthy  bool                `json:"healthy"`
	UptimeS  float64             `json:"uptime_s"`
	Events   int64               `json:"events"`  // total events recorded
	Trips    int64               `json:"trips"`   // critical events (cumulative, never reset)
	Cleared  int64               `json:"cleared"` // trips acknowledged by recovery re-arms
	Rearms   int64               `json:"rearms"`  // recovery re-arm count
	Dropped  int64               `json:"dropped"` // events evicted from the ring
	Counts   map[string][3]int64 `json:"watchdogs,omitempty"`
	Critical []Event             `json:"critical,omitempty"` // most recent critical events (≤ 8)
}

// Verdict assembles the health verdict served by /healthz.
func (h *Health) Verdict() Verdict {
	if h == nil {
		return Verdict{Status: "healthy", Healthy: true}
	}
	h.mu.Lock()
	uptime := time.Since(h.start).Seconds()
	trips := h.trips
	cleared := h.cleared
	rearms := h.rearms
	dropped := h.dropped
	seq := h.seq
	counts := make(map[string][3]int64, len(h.counts))
	for k, v := range h.counts {
		counts[k] = v
	}
	// Collect the most recent critical events, newest last.
	var crit []Event
	ordered := make([]Event, 0, len(h.events))
	ordered = append(ordered, h.events[h.head:]...)
	ordered = append(ordered, h.events[:h.head]...)
	h.mu.Unlock()
	for _, e := range ordered {
		if e.Severity == SevCritical {
			crit = append(crit, e)
		}
	}
	if len(crit) > 8 {
		crit = crit[len(crit)-8:]
	}
	v := Verdict{
		Status: "healthy", Healthy: trips == cleared, UptimeS: uptime,
		Events: seq, Trips: trips, Cleared: cleared, Rearms: rearms,
		Dropped: dropped, Counts: counts, Critical: crit,
	}
	if !v.Healthy {
		v.Status = "unhealthy"
	}
	return v
}
