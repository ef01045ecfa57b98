package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Parent is the span that caused it (-1 for a root).
type span struct {
	Name    string `json:"name"`
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory; they are written out when the run ends. A
// nil *tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, StartNS: now, EndNS: -1})
	t.mu.Unlock()
	return id
}

// end closes the span and returns its duration.
func (t *tracer) end(id int32) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	s := &t.spans[id]
	s.EndNS = now
	d := s.dur()
	t.mu.Unlock()
	return d
}

// add records an already-measured span (for calls timed on another
// goroutine's clock, such as requests timed from their due time).
func (t *tracer) add(name string, parent int32, start time.Time, d time.Duration) int32 {
	if t == nil {
		return -1
	}
	s := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, StartNS: s, EndNS: s + d.Nanoseconds()})
	t.mu.Unlock()
	return id
}

// durations returns the closed spans' durations by name, in seconds.
func (t *tracer) durations() map[string]samples {
	out := map[string]samples{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.EndNS >= 0 {
			d := out[s.Name]
			d.addDur(s.dur())
			out[s.Name] = d
		}
	}
	return out
}

// childSums returns, per closed span id, the summed duration of its
// closed children.
func (t *tracer) childSums() map[int32]time.Duration {
	out := map[int32]time.Duration{}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Parent >= 0 && s.EndNS >= 0 {
			out[s.Parent] += s.dur()
		}
	}
	return out
}

// spansNamed returns copies of the closed spans with the given name.
func (t *tracer) spansNamed(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.EndNS >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes sums each span name's self time (its duration minus the part
// its children cover), in seconds.
func (t *tracer) selfTimes() map[string]float64 {
	kids := t.childSums()
	out := map[string]float64{}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.EndNS >= 0 {
			out[s.Name] += (s.dur() - kids[s.ID]).Seconds()
		}
	}
	return out
}

// write stores the spans as JSON under .bench_build/trace/ in the working
// directory and returns the path ("" if it could not be written).
func (t *tracer) write(cfg config) string {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ""
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	self := t.selfTimes()
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Self     map[string]float64 `json:"self_seconds"`
		Spans    []span             `json:"spans"`
	}{cfg.workload, cfg.seed, self, t.spans})
	t.mu.Unlock()
	if err != nil {
		return ""
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return ""
	}
	return path
}
