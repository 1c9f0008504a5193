package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer: a name such as "sparql.parse",
// start and end offsets from the tracer's origin, the span that caused
// it (0 for a root) and the benchmark operation it belongs to.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Op     int64         `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// valid, disabled tracer: every method is a no-op, so the untraced run
// pays one nil check per call site.
type tracer struct {
	origin time.Time
	nextID atomic.Int64
	// on gates recording, so a handler wrapped for tracing can serve an
	// untraced phase first.
	on atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{origin: time.Now()}
	t.on.Store(true)
	return t
}

// enabled reports whether spans are being recorded.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// active is an open span; end records it.
type active struct {
	t      *tracer
	id     int64
	parent int64
	op     int64
	name   string
	start  time.Time
}

// start opens a span. The returned value is usable (and end a no-op)
// when t is nil.
func (t *tracer) start(name string, parent, op int64) active {
	if !t.enabled() {
		return active{}
	}
	return active{t: t, id: t.nextID.Add(1), parent: parent, op: op, name: name, start: time.Now()}
}

// end closes the span.
func (a active) end() {
	if a.t == nil {
		return
	}
	a.t.record(span{ID: a.id, Parent: a.parent, Op: a.op, Name: a.name,
		Start: a.start.Sub(a.t.origin), End: time.Since(a.t.origin)})
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children. Overlapping children (a
// parallel fan-out) count once, and a child running past its parent's
// end is clipped to the parent.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}
