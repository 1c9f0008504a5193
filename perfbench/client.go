package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// opKind is the class of one benchmark operation.
type opKind uint8

const (
	kindRead       opKind = iota // light SPARQL SELECT
	kindHeavy                    // heavy join or aggregate SELECT
	kindUpdate                   // SPARQL INSERT DATA / DELETE DATA
	kindAsk                      // single-quad ASK
	kindAlgo                     // POST /algo
	kindCheckpoint               // POST /checkpoint?mode=incremental
)

var kindNames = [...]string{"read", "heavy", "update", "ask", "algo", "checkpoint"}

func (k opKind) String() string { return kindNames[k] }

// op is one request of a workload's generated stream.
type op struct {
	id    int64
	kind  opKind
	name  string // query or call label, e.g. "EQ7b.SP" or "pagerank.RF"
	model string
	text  string        // query, update or /algo JSON body
	at    time.Duration // scheduled send time (open loop only)
}

// outcome is what one request returned.
type outcome struct {
	op     *op
	status int
	body   []byte
	lat    time.Duration // from the scheduled send time in an open loop
	late   time.Duration // how far the send ran behind schedule
	err    error
}

func (o outcome) ok() bool { return o.err == nil && o.status == http.StatusOK }

// errNotSent marks ops a tripped watchdog never sent.
var errNotSent = errors.New("not sent: the server stopped answering")

// Headers that tie a server-side span to the client request.
const (
	hdrOp   = "X-Perfbench-Op"
	hdrSpan = "X-Perfbench-Span"
)

// client issues the workload's requests over at most conns loopback
// connections.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer
}

func newClient(base string, conns int, tr *tracer) *client {
	t := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: t}, tr: tr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one op and reads the whole response.
func (c *client) do(ctx context.Context, o *op) (int, []byte, error) {
	req, err := c.request(ctx, o)
	if err != nil {
		return 0, nil, err
	}
	sp := c.tr.start("client."+o.kind.String(), 0, o.id)
	if c.tr.enabled() {
		req.Header.Set(hdrOp, itoa(o.id))
		req.Header.Set(hdrSpan, itoa(sp.id))
	}
	defer sp.end()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func (c *client) request(ctx context.Context, o *op) (*http.Request, error) {
	var path, ctype string
	var body []byte
	switch o.kind {
	case kindRead, kindHeavy, kindAsk:
		path, ctype = "/sparql", "application/x-www-form-urlencoded"
		body = []byte(url.Values{"query": {o.text}, "model": {o.model}}.Encode())
	case kindUpdate:
		path, ctype = "/update", "application/x-www-form-urlencoded"
		body = []byte(url.Values{"update": {o.text}, "model": {o.model}}.Encode())
	case kindAlgo:
		path, ctype, body = "/algo", "application/json", []byte(o.text)
	case kindCheckpoint:
		path = "/checkpoint?mode=incremental"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	return req, nil
}

// watchdog ends a workload whose server has stopped answering: once no
// response has arrived for one window while requests are outstanding,
// it trips. Client-side deadline expiries are not progress.
type watchdog struct {
	window      time.Duration
	last        atomic.Int64 // unix nanos of the last response, or of going busy
	outstanding atomic.Int64
	tripped     chan struct{}
	stop        chan struct{}
	done        chan struct{}
}

func startWatchdog(window time.Duration) *watchdog {
	w := &watchdog{window: window, tripped: make(chan struct{}), stop: make(chan struct{}), done: make(chan struct{})}
	w.last.Store(time.Now().UnixNano())
	go w.loop()
	return w
}

func (w *watchdog) loop() {
	defer close(w.done)
	t := time.NewTicker(max(w.window/16, time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case now := <-t.C:
			if w.outstanding.Load() > 0 && now.UnixNano()-w.last.Load() > int64(w.window) {
				close(w.tripped)
				return
			}
		}
	}
}

// begin notes a request going out (a nil watchdog watches nothing); going from idle to busy restarts
// the window.
func (w *watchdog) begin() {
	if w == nil {
		return
	}
	if w.outstanding.Add(1) == 1 {
		w.last.Store(time.Now().UnixNano())
	}
}

// end notes a request finishing; responded reports whether the server
// answered (with any status).
func (w *watchdog) end(responded bool) {
	if w == nil {
		return
	}
	if responded {
		w.last.Store(time.Now().UnixNano())
	}
	w.outstanding.Add(-1)
}

func (w *watchdog) isTripped() bool {
	select {
	case <-w.tripped:
		return true
	default:
		return false
	}
}

// close stops the watchdog goroutine and waits for it.
func (w *watchdog) close() {
	close(w.stop)
	<-w.done
}

// execFn performs one op: over HTTP (client.do) or, in the traced
// replay, by calling the layers in-process. status is 0 when nothing
// answered.
type execFn func(ctx context.Context, o *op) (status int, body []byte, err error)

// send issues one op under the client deadline and the watchdog. A
// failed or late request is recorded at the deadline.
func send(exec execFn, w *watchdog, o *op, deadline time.Duration, scheduled time.Time) outcome {
	w.begin()
	sent := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	status, body, err := exec(ctx, o)
	cancel()
	w.end(status != 0)
	out := outcome{op: o, status: status, body: body, err: err, lat: time.Since(scheduled), late: sent.Sub(scheduled)}
	if err == nil && status != http.StatusOK {
		out.err = fmt.Errorf("%s: HTTP %d: %s", o.name, status, truncate(body, 200))
	}
	if out.err != nil || out.lat > deadline {
		if out.err == nil {
			out.err = fmt.Errorf("%s: missed the %v deadline", o.name, deadline)
		}
		out.lat = deadline
	}
	return out
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		return string(b[:n]) + "..."
	}
	return string(b)
}

// runOpenLoop sends every op at its scheduled offset from now,
// regardless of how earlier ones fare, and returns the outcomes in op
// order. If the watchdog trips, unsent ops fail and the loop ends.
func runOpenLoop(exec execFn, ops []*op, deadline time.Duration) (outs []outcome, wedged bool) {
	outs = make([]outcome, len(ops))
	w := startWatchdog(deadline)
	defer w.close()
	var wg sync.WaitGroup
	t0 := time.Now()
	i := 0
	for ; i < len(ops); i++ {
		at := t0.Add(ops[i].at)
		if d := time.Until(at); d > 0 {
			timer := time.NewTimer(d)
			select {
			case <-timer.C:
			case <-w.tripped:
				timer.Stop()
			}
		}
		if w.isTripped() {
			break
		}
		wg.Add(1)
		go func(i int, at time.Time) {
			defer wg.Done()
			outs[i] = send(exec, w, ops[i], deadline, at)
		}(i, at)
	}
	for ; i < len(ops); i++ {
		outs[i] = outcome{op: ops[i], lat: deadline, err: errNotSent}
	}
	wg.Wait()
	return outs, w.isTripped()
}

// runClosedLoop sends the ops one after another, calling after with
// each outcome before the next op goes out. A tripped watchdog fails
// the remaining ops.
func runClosedLoop(exec execFn, ops []*op, deadline time.Duration, after func(o outcome)) (wedged bool) {
	w := startWatchdog(deadline)
	defer w.close()
	for _, o := range ops {
		if w.isTripped() {
			after(outcome{op: o, lat: deadline, err: errNotSent})
			continue
		}
		after(send(exec, w, o, deadline, time.Now()))
	}
	return w.isTripped()
}

// writeGoroutineDump saves every goroutine's stack, the evidence of a
// wedged server.
func writeGoroutineDump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("goroutine").WriteTo(f, 2); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceHandler wraps the server's handler with an httpapi.serve span
// parented to the client span named in the request headers.
func traceHandler(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		opID, _ := strconv.ParseInt(r.Header.Get(hdrOp), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		sp := tr.start("httpapi.serve", parent, opID)
		defer sp.end()
		next.ServeHTTP(w, r)
	})
}
