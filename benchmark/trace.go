package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the
// program. Spans of one epoch share Epoch; spans of one service request
// also share Request (0 elsewhere). Parent is the id of the span that
// caused this one, −1 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Epoch   int    `json:"epoch"`
	Request int    `json:"request,omitempty"`
}

// tracer collects spans in memory; write dumps them when the run ends.
// A nil *tracer records nothing, so the same workload code runs traced
// and untraced — the end-to-end pass always runs with a nil tracer.
// All recording happens in the benchmark's own files, around its calls
// into the program; it adds no instrumentation inside internal/.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

const noSpan = -1

// begin opens a span and returns its id (noSpan on a nil tracer).
func (t *tracer) begin(name string, parent, epoch, request int) int {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNS: now, EndNS: now, Epoch: epoch, Request: request})
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == noSpan {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// call wraps fn in a span.
func (t *tracer) call(name string, parent, epoch int, fn func()) {
	id := t.begin(name, parent, epoch, 0)
	fn()
	t.end(id)
}

// seconds returns the durations of every span with the given name.
func (t *tracer) seconds(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e9)
		}
	}
	return out
}

// selfSeconds returns, per span name, total self time: each span's
// duration minus the part of it its direct children cover.
func (t *tracer) selfSeconds() map[string]float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		out[s.Name] += float64(s.EndNS-s.StartNS-child[s.ID]) / 1e9
	}
	return out
}

// traceFile is the on-disk layout of benchmark/out/trace-<workload>.json.
type traceFile struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	SelfSeconds map[string]float64 `json:"self_seconds"`
	Spans       []span             `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	self := t.selfSeconds()
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartNS < spans[j].StartNS })
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, SelfSeconds: self, Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
