package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the layer's public function. Spans of one replayed
// request share Req; Parent is -1 for the request's root.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) iv() interval       { return interval{s.Start, s.End} }
func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run
// ends. It is used from one goroutine (the replay is sequential).
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) start(req, parent int, name string) int {
	t.spans = append(t.spans, span{Req: req, ID: len(t.spans), Parent: parent, Name: name, Start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

// stop closes span id and returns its duration.
func (t *tracer) stop(id int) time.Duration {
	s := &t.spans[id]
	s.End = int64(time.Since(t.epoch))
	return s.dur()
}

// timed runs fn inside a span.
func (t *tracer) timed(req, parent int, name string, fn func() error) (time.Duration, error) {
	id := t.start(req, parent, name)
	err := fn()
	return t.stop(id), err
}

// spanTree is the checked view of one request's spans.
type spanTree struct {
	root     span
	self     map[int]int64 // span id -> self time, ns
	children map[int][]span
}

// analyze checks the integrity of every request's span tree and
// computes self times by interval union: each child lies inside its
// parent, and the self times of a request sum to no more than its root
// (children of one parent that overlapped would be counted twice).
func analyze(spans []span) (map[int]*spanTree, error) {
	trees := map[int]*spanTree{}
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
	}
	for _, s := range spans {
		if s.Parent < 0 {
			if trees[s.Req] != nil {
				return nil, fmt.Errorf("request %d has two roots", s.Req)
			}
			trees[s.Req] = &spanTree{root: s, self: map[int]int64{}, children: map[int][]span{}}
		}
	}
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Req != s.Req {
			return nil, fmt.Errorf("span %d (%s) has no parent in request %d", s.ID, s.Name, s.Req)
		}
		if s.Start < p.Start || s.End > p.End {
			return nil, fmt.Errorf("span %d (%s) [%d,%d] is not inside its parent %s [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		t := trees[s.Req]
		if t == nil {
			return nil, fmt.Errorf("request %d has no root", s.Req)
		}
		t.children[s.Parent] = append(t.children[s.Parent], s)
	}
	for req, t := range trees {
		var sum int64
		for _, s := range spans {
			if s.Req != req {
				continue
			}
			var ch []interval
			for _, c := range t.children[s.ID] {
				ch = append(ch, c.iv())
			}
			self := selfTime(s.iv(), ch)
			t.self[s.ID] = self
			sum += self
		}
		if sum > t.root.End-t.root.Start {
			return nil, fmt.Errorf("request %d: self times sum to %d ns, more than the root's %d ns", req, sum, t.root.End-t.root.Start)
		}
	}
	return trees, nil
}

// named returns the request's spans called name (any depth).
func (t *spanTree) named(name string) []span {
	var out []span
	for _, ch := range t.children {
		for _, s := range ch {
			if s.Name == name {
				out = append(out, s)
			}
		}
	}
	if t.root.Name == name {
		out = append(out, t.root)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// durOf is the total duration of the request's spans called name.
func (t *spanTree) durOf(name string) (time.Duration, bool) {
	ss := t.named(name)
	var d time.Duration
	for _, s := range ss {
		d += s.dur()
	}
	return d, len(ss) > 0
}

// selfOf is the total self time of the request's spans called name.
func (t *spanTree) selfOf(name string) (time.Duration, bool) {
	ss := t.named(name)
	var d int64
	for _, s := range ss {
		d += t.self[s.ID]
	}
	return time.Duration(d), len(ss) > 0
}

// unattributed is the share of the root not covered by its children.
func (t *spanTree) unattributed() float64 {
	l := t.root.End - t.root.Start
	if l <= 0 {
		return 0
	}
	return float64(t.self[t.root.ID]) / float64(l)
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
