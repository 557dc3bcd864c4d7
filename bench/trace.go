package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from this package around
// the call (spans inside the program are a later change). Spans of one op
// share Op; Parent is the ID of the span that caused this one, 0 for none.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. The zero value is ready;
// a nil tracer records nothing, which is how the untraced pass runs.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id and the function that closes it.
func (t *tracer) start(name string, parent, op int) (id int, end func()) {
	if t == nil {
		return 0, func() {}
	}
	t.mu.Lock()
	id = len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNS: time.Since(t.epoch).Nanoseconds()})
	t.mu.Unlock()
	return id, func() {
		now := time.Since(t.epoch).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].EndNS = now
		t.mu.Unlock()
	}
}

// add records a span whose interval was reconstructed (from reply fields)
// rather than timed here, and returns its id.
func (t *tracer) add(name string, parent, op int, start time.Time, d time.Duration) int {
	if t == nil {
		return 0
	}
	s := start.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNS: s, EndNS: s + d.Nanoseconds()})
	return id
}

// timed runs f inside a span and returns its wall in seconds.
func (t *tracer) timed(name string, parent, op int, f func()) float64 {
	_, end := t.start(name, parent, op)
	t0 := time.Now()
	f()
	d := time.Since(t0).Seconds()
	end()
	return d
}

func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
