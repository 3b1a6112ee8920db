package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one job share Job; Parent names the span that
// caused this one ("" for a job's root).
type span struct {
	Name    string `json:"name"`
	Job     int    `json:"job"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write saves them when the run ends.
// Recording one span is an append under a lock, cheap next to the layer
// calls it times, so spans are kept in untraced runs too and every metric
// reads from them.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span that ran from start to end.
func (t *tracer) add(name string, job int, parent string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Name: name, Job: job, Parent: parent,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
	})
	t.mu.Unlock()
}

// Span job numbers: set-up spans use setupJob, measured jobs count up
// from 1, and recovery cycles count down from -1.
const setupJob = 0

// durations returns the length in seconds of every span with this name,
// in recording order.
func (t *tracer) durations(name string) []float64 {
	return t.filter(name, func(int) bool { return true })
}

// loop is durations restricted to the measured jobs.
func (t *tracer) loop(name string) []float64 {
	return t.filter(name, func(job int) bool { return job > 0 })
}

func (t *tracer) filter(name string, keep func(job int) bool) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && keep(s.Job) {
			out = append(out, float64(s.EndNS-s.StartNS)/1e9)
		}
	}
	return out
}

// write saves every span as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
