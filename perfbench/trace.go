package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans around the benchmark's calls into the program:
// name, start, end and the span that caused it, all under one run id.
// Spans stay in memory and are written out once, when the run ends. A
// nil *tracer is tracing off: every method is a no-op, so the untraced
// measurement pays one nil check per call.
type tracer struct {
	runID  string
	origin time.Time
	next   atomic.Int64

	mu    sync.Mutex
	spans []span
}

// span is one recorded interval; times are nanoseconds since the
// tracer was created.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer(runID string) *tracer {
	return &tracer{runID: runID, origin: time.Now()}
}

// id reserves a span id, so children can name their parent before the
// parent's span is recorded. 0 means no span (tracing off).
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// record stores a finished span under a reserved id.
func (t *tracer) record(id, parent int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Name: name, Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// add reserves an id and records a finished span in one step.
func (t *tracer) add(parent int64, name string, start, end time.Time) int64 {
	id := t.id()
	t.record(id, parent, name, start, end)
	return id
}

// selfTimes sums each span name's self time: its duration minus the
// part its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := map[int64]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		self[s.Name] += time.Duration(max(0, s.End-s.Start-child[s.ID]))
	}
	return self
}

// traceFile is what a traced run writes when it ends.
type traceFile struct {
	RunID  string             `json:"run_id"`
	Env    envInfo            `json:"env"`
	Layers map[string]float64 `json:"layers"`
	Spans  []span             `json:"spans"`
}

// write stores the spans, with the run's environment and per-layer
// figures, as dir/<workload>-seed<seed>-<run id>.json and returns the
// path.
func (t *tracer) write(dir string, env envInfo, layers map[string]float64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating trace directory: %w", err)
	}
	t.mu.Lock()
	tf := traceFile{RunID: t.runID, Env: env, Layers: layers, Spans: t.spans}
	data, err := json.Marshal(&tf)
	t.mu.Unlock()
	if err != nil {
		return "", fmt.Errorf("encoding spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", env.Workload, env.Seed, t.runID))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}
