package main

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// A handler that never answers stands in for a wedged server: the
// watchdog must end the open loop, fail every op at the deadline and
// leave the unsent ones unsent, instead of hanging.
func TestWatchdogEndsWedgedRun(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("fast") == "" && strings.Contains(r.URL.Path, "sparql") {
			select {
			case <-release:
			case <-r.Context().Done():
			}
			return
		}
		w.Write([]byte(`{"head":{"vars":[]},"results":{"bindings":[]}}`))
	}))
	defer srv.Close()
	defer close(release)

	c := newClient(srv.URL, 2, nil)
	defer c.close()
	var ops []*op
	for i := 0; i < 200; i++ {
		ops = append(ops, &op{id: int64(i + 1), kind: kindRead, name: "EQ1", text: "SELECT * WHERE { ?s ?p ?o }",
			at: time.Duration(i) * 20 * time.Millisecond})
	}
	deadline := 300 * time.Millisecond
	start := time.Now()
	outs, wedged := runOpenLoop(c.do, ops, deadline)
	if !wedged {
		t.Fatal("watchdog did not trip")
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("wedged run took %v; the watchdog should end it after about one deadline", took)
	}
	notSent := 0
	for _, o := range outs {
		if o.ok() {
			t.Fatalf("op %d succeeded against a blocking handler", o.op.id)
		}
		if o.lat != deadline {
			t.Fatalf("failed op %d recorded at %v, want the deadline %v", o.op.id, o.lat, deadline)
		}
		if errors.Is(o.err, errNotSent) {
			notSent++
		}
	}
	if notSent == 0 || notSent == len(ops) {
		t.Fatalf("%d of %d ops unsent; want the tail of the schedule unsent", notSent, len(ops))
	}

	dump := filepath.Join(t.TempDir(), "goroutines.txt")
	if err := writeGoroutineDump(dump); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(dump)
	if err != nil || !strings.Contains(string(b), "goroutine ") {
		t.Fatalf("goroutine dump missing stacks: %v", err)
	}
}

// A server that answers keeps the watchdog quiet.
func TestWatchdogQuietWhileAnswering(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(5 * time.Millisecond)
		w.Write([]byte(`{"head":{"vars":[]},"results":{"bindings":[]}}`))
	}))
	defer srv.Close()
	c := newClient(srv.URL, 2, nil)
	defer c.close()
	var ops []*op
	for i := 0; i < 50; i++ {
		ops = append(ops, &op{id: int64(i + 1), kind: kindRead, name: "EQ1", text: "x", at: time.Duration(i) * 5 * time.Millisecond})
	}
	outs, wedged := runOpenLoop(c.do, ops, 200*time.Millisecond)
	if wedged {
		t.Fatal("watchdog tripped on a live server")
	}
	for _, o := range outs {
		if !o.ok() {
			t.Fatalf("op %d failed: %v", o.op.id, o.err)
		}
	}
}
