package main

// Harness-side spans: recorded around the calls into each layer, kept in
// memory, written to bench/out/trace-<workload>.json when the run ends.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval. Start and End are seconds since the tracer's
// epoch; Parent is the index of the enclosing span in the file (-1 for a
// root); ID is workload/leg/pass/period and is shared by every span of one
// exchange period.
type span struct {
	Name   string  `json:"name"`
	ID     string  `json:"id"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Parent int     `json:"parent"`
}

type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its index. A nil tracer records
// nothing.
func (t *tracer) add(name, id string, start, end time.Time, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, ID: id, Parent: parent,
		Start: start.Sub(t.epoch).Seconds(), End: end.Sub(t.epoch).Seconds(),
	})
	return len(t.spans) - 1
}

// setParent re-parents span i (children finish before their period does).
func (t *tracer) setParent(i, parent int) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].Parent = parent
	t.mu.Unlock()
}

func (t *tracer) write(dir, workload string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans}, "", " ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), append(data, '\n'), 0o644)
}
