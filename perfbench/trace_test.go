package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "client", Start: ms(0), End: ms(100)},
		// Two overlapping children count once: [10,50] covers 40.
		{ID: 2, Parent: 1, Name: "serve", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "serve", Start: ms(20), End: ms(50)},
		// A child running past its parent is clipped: [90,100] covers 10.
		{ID: 4, Parent: 1, Name: "late", Start: ms(90), End: ms(120)},
		// A grandchild reduces its parent's self time, not the root's.
		{ID: 5, Parent: 3, Name: "exec", Start: ms(25), End: ms(45)},
		// A span with no children keeps its whole duration.
		{ID: 6, Name: "other", Start: ms(200), End: ms(207)},
	}
	want := map[int64]time.Duration{1: ms(50), 2: ms(20), 3: ms(10), 4: ms(30), 5: ms(20), 6: ms(7)}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self time %v, want %v", id, got[id], w)
		}
	}
}

func TestTracerNilAndOff(t *testing.T) {
	var nilTr *tracer
	nilTr.start("x", 0, 1).end()
	if nilTr.snapshot() != nil {
		t.Fatal("nil tracer recorded spans")
	}
	tr := newTracer()
	tr.on.Store(false)
	tr.start("x", 0, 1).end()
	tr.on.Store(true)
	a := tr.start("parent", 0, 7)
	tr.start("child", a.id, 7).end()
	a.end()
	spans := tr.snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2 (the span started while off is dropped)", len(spans))
	}
	if spans[0].Parent != spans[1].ID || spans[0].Op != 7 {
		t.Fatalf("child span %+v not linked to parent %+v", spans[0], spans[1])
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if q := quantile(xs, 0.5); q != 3 {
		t.Fatalf("median %v, want 3", q)
	}
	if q := quantile(xs, 0.25); q != 2 {
		t.Fatalf("p25 %v, want 2", q)
	}
	if q := quantile([]float64{1, 2}, 0.99); q < 1.98 || q > 2 {
		t.Fatalf("p99 %v, want 1.99", q)
	}
}
