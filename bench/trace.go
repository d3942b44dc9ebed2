package main

import (
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Times are
// nanoseconds since the tracer started; Parent is the index of the
// span that caused this one (−1 for a root) and Req ties the spans of
// one request or replayed input together.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Spans are recorded
// only from this package, around the calls into each layer, and from
// one goroutine (the one client, then the replay). A nil tracer records
// nothing, which is how the timed run keeps tracing off.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (−1 on a nil tracer).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
}

// endAs closes a span under another name, for a call whose kind is only
// known from its result.
func (t *tracer) endAs(id int, name string) {
	t.end(id)
	if t != nil {
		t.spans[id].Name = name
	}
}

// child records a span of the given length that ends with its parent:
// a duration the program reported, whose position inside the parent is
// not known from outside.
func (t *tracer) child(name string, parent int, d time.Duration) {
	if t == nil {
		return
	}
	p := t.spans[parent]
	start := p.End - d.Nanoseconds()
	if start < p.Start {
		start = p.Start
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: p.Req, Start: start, End: p.End})
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover (overlapping children count
// once).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered := s.Start
		for _, k := range ks {
			lo, hi := max(spans[k].Start, covered), min(spans[k].End, s.End)
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// spanTable indexes a finished trace by span name.
type spanTable struct {
	dur, self map[string][]float64 // microseconds
}

func tabulate(spans []span) spanTable {
	t := spanTable{dur: map[string][]float64{}, self: map[string][]float64{}}
	self := selfTimes(spans)
	for i, s := range spans {
		t.dur[s.Name] = append(t.dur[s.Name], float64(s.End-s.Start)/1e3)
		t.self[s.Name] = append(t.self[s.Name], float64(self[i])/1e3)
	}
	return t
}
