package main

import (
	"time"
)

// span is one recorded span of the traced run. The benchmark records a
// span around each call it makes into a layer's public function (source
// "bench"), and grafts under it the span trees that the server's
// ?trace=1 or an in-process obs recorder return (source "server"); those
// carry a duration but no start time.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"` // 0 for a root
	Request int    `json:"request"`
	Name    string `json:"name"`
	Source  string `json:"source"`
	StartNS int64  `json:"start_ns"` // from the tracer's epoch; -1 when unknown
	DurNS   int64  `json:"dur_ns"`
	Count   int64  `json:"count,omitempty"` // merged occurrences of a server leaf span
}

// tracer keeps the spans of a traced run in memory until the end of the
// run. It is used from one goroutine.
type tracer struct {
	epoch time.Time
	spans []span
	reqs  int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// request starts a new request id.
func (t *tracer) request() int {
	t.reqs++
	return t.reqs
}

// begin opens a bench span and returns its id.
func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Request: req, Name: name,
		Source: "bench", StartNS: int64(time.Since(t.epoch)),
	})
	return len(t.spans)
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.DurNS = int64(time.Since(t.epoch)) - s.StartNS
	return time.Duration(s.DurNS)
}

// timed records fn as a span and returns its duration.
func (t *tracer) timed(name string, parent, req int, fn func()) time.Duration {
	id := t.begin(name, parent, req)
	fn()
	return t.end(id)
}

// graft adds a returned span tree under parent.
func (t *tracer) graft(parent, req int, s *spanJSON) {
	if s == nil {
		return
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Request: req, Name: s.Name,
		Source: "server", StartNS: -1, DurNS: s.DurationNS, Count: s.Count,
	})
	id := len(t.spans)
	for _, c := range s.Children {
		t.graft(id, req, c)
	}
}

// selfTime is a span's duration minus the durations of its children,
// never below zero (parallel children can cover more than their parent's
// wall time).
func selfTime(s *spanJSON) time.Duration {
	d := s.DurationNS
	for _, c := range s.Children {
		d -= c.DurationNS
	}
	return time.Duration(max(d, 0))
}

// perCall collects, over the trees, the self time per occurrence of every
// span named name, in units of unit. A merged leaf span counts once per
// occurrence.
func perCall(roots []*spanJSON, name string, unit time.Duration) []float64 {
	var out []float64
	var walk func(s *spanJSON)
	walk = func(s *spanJSON) {
		if s.Name == name {
			n := max(s.Count, 1)
			out = append(out, float64(selfTime(s))/float64(n)/float64(unit))
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, r := range roots {
		if r != nil {
			walk(r)
		}
	}
	return out
}
