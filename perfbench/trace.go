package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one job share Job; Parent is the enclosing span's
// ID (0 for none).
type span struct {
	Job    string `json:"job"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, so untraced code paths pay only a nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open reserves a span ID, for a parent span whose end is not yet known.
func (t *tracer) open() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1})
	return len(t.spans)
}

// close fills in a span reserved by open.
func (t *tracer) close(id int, job string, parent int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1] = span{Job: job, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
}

// add records a finished span and returns its ID.
func (t *tracer) add(job string, parent int, name string, start, end time.Time) int {
	id := t.open()
	t.close(id, job, parent, name, start, end)
	return id
}

// job records one service job: the whole job, and under it the submit
// (POST until acknowledged), the wait (acknowledged until the metrics
// stream's EOF) and the result fetch.
func (t *tracer) job(job string, jt jobTimes) {
	if t == nil || jt.fetched.IsZero() || jt.eof.IsZero() {
		return
	}
	root := t.add(job, 0, "svc.job", jt.start, jt.fetched)
	t.add(job, root, "service.submit", jt.start, jt.acked)
	t.add(job, root, "service.wait", jt.acked, jt.eof)
	t.add(job, root, "service.fetch", jt.eof, jt.fetched)
}

// durations returns the lengths of the spans named name whose job ID
// starts with prefix.
func (t *tracer) durations(name, prefix string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && len(s.Job) >= len(prefix) && s.Job[:len(prefix)] == prefix {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the time its
// child spans cover (children of one parent never overlap here).
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		self[s.Name] += float64(s.End-s.Start-child[s.ID]) / 1e6
	}
	return self
}

// write saves the spans, their per-name self time in ms, and extra
// fields describing the run, as one JSON document.
func (t *tracer) write(path string, extra map[string]any) error {
	doc := map[string]any{}
	for k, v := range extra {
		doc[k] = v
	}
	doc["self_ms"] = t.selfTimes()
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	doc["spans"] = spans
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
