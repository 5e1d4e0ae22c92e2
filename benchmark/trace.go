package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records one span per wrapped call into a layer's public
// function: name, start, end, parent span and op ID. Spans stay in
// memory until the run ends. A nil *tracer records nothing, so the
// untraced measurement path runs the same code with tracing off.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []spanRec
}

type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// span is an open span; end closes it and returns its duration.
type span struct {
	t      *tracer
	id     int64
	parent int64
	op     int64
	name   string
	start  time.Time
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, op int64) span {
	s := span{t: t, parent: parent, op: op, name: name}
	if t != nil {
		s.id = t.nextID.Add(1)
	}
	s.start = time.Now()
	return s
}

func (s span) end() time.Duration {
	now := time.Now()
	d := now.Sub(s.start)
	if s.t != nil {
		s.t.mu.Lock()
		s.t.spans = append(s.t.spans, spanRec{
			ID: s.id, Parent: s.parent, Op: s.op, Name: s.name,
			Start: s.start.Sub(s.t.t0).Nanoseconds(), End: now.Sub(s.t.t0).Nanoseconds(),
		})
		s.t.mu.Unlock()
	}
	return d
}

// selfTimes sums, per span name, each span's duration minus the part
// covered by its direct children (children of one parent never overlap:
// every wrapped call nests inside its caller on one goroutine).
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int64]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		out[s.Name] += float64(s.End-s.Start-child[s.ID]) / 1e3
	}
	return out
}

// write dumps every span plus the per-name self-time totals (µs).
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	t.mu.Lock()
	spans := append([]spanRec(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	b, err := json.Marshal(struct {
		SelfUS map[string]float64 `json:"self_us"`
		Spans  []spanRec          `json:"spans"`
	}{self, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
