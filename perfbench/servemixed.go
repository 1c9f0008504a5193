package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/pgrdf"
	"repro/internal/wal"
)

// serveMixedRate is the frozen open-loop arrival rate (requests per
// second), well below what the light-read and update share sustains.
const serveMixedRate = 400.0

// serveDeadline is the client deadline of every serve-mixed request and
// the watchdog's window.
const serveDeadline = 2 * time.Second

// serveMixedResult is what one open-loop pass over the schedule measured.
type serveMixedResult struct {
	outs    []outcome
	wedged  bool
	readMS  []float64
	updMS   []float64
	heavyMS []float64
	failed  int
}

// runServeMixedOnce sends the schedule open loop and checks that every
// 200 response parses.
func runServeMixedOnce(exec execFn, ops []*op, rep *report, what string) serveMixedResult {
	outs, wedged := runOpenLoop(exec, ops, serveDeadline)
	r := serveMixedResult{outs: outs, wedged: wedged}
	for _, o := range outs {
		lat := ms(o.lat)
		switch o.op.kind {
		case kindRead:
			r.readMS = append(r.readMS, lat)
		case kindUpdate:
			r.updMS = append(r.updMS, lat)
		case kindHeavy:
			r.heavyMS = append(r.heavyMS, lat)
		}
		if !o.ok() {
			r.failed++
			continue
		}
		if err := checkBody(o); err != nil {
			rep.fail("%s %s (op %d): %v", what, o.op.name, o.op.id, err)
		}
	}
	return r
}

// checkBody parses a 200 response body of any op class.
func checkBody(o outcome) error {
	switch o.op.kind {
	case kindRead, kindHeavy:
		_, err := countJSON(o.body)
		return err
	case kindAsk:
		_, err := askJSON(o.body)
		return err
	default:
		var v map[string]any
		if err := json.Unmarshal(o.body, &v); err != nil {
			return fmt.Errorf("unparseable reply %q", truncate(o.body, 120))
		}
		return nil
	}
}

func dataDir(o options, tag string, i int) string {
	return filepath.Join(o.out, "data", fmt.Sprintf("%s-%d-%d", tag, os.Getpid(), i))
}

// runServeMixed is the serve-mixed workload: the NG store behind the
// server with a WAL at -fsync interval, driven open loop by Poisson
// arrivals of light reads, updates and heavy joins.
func runServeMixed(o options, rep *report) error {
	spec := envSpec{schemes: []pgrdf.Scheme{pgrdf.NG}, wal: true, sync: wal.SyncInterval}
	dur := time.Duration(o.seconds) * time.Second
	rep.Header.Params = map[string]any{"schemes": "NG", "loop": "open", "rate_per_s": serveMixedRate,
		"connections": conns(), "wal": "fsync interval", "deadline_s": serveDeadline.Seconds(),
		"light_share": 1 - heavyShare - updateShare, "update_share": updateShare, "heavy_share": heavyShare}
	var tr *tracer
	if o.trace {
		tr = newTracer()
		tr.on.Store(false)
	}
	e, g, secs, err := setupRepeated(o.setupCount(), o.twitterConfig(), spec,
		func(i int) string { return dataDir(o, "serve-mixed", i) }, tracedWrap(tr))
	if err != nil {
		return err
	}
	defer func() { e.close(); os.RemoveAll(e.dir) }()
	d := describe(g, o.scale, false)
	g = nil
	rep.set("setup_s", "s", median(secs), len(secs))
	heap := heapMB()
	untracedGeo, err := measureServeMixed(e, d, o, rep)
	if err != nil {
		return err
	}
	// The schedule and the outcomes are gone by now, so the heap is the
	// program's.
	rep.set("heap_mb", "MB", max(heap, heapMB()), 2)
	if !o.trace {
		return nil
	}

	// Traced run: a fresh set-up (the first may be wedged), the same
	// schedule with spans on, then the in-process replay on a third.
	ops := serveMixedOps(d, o.seed, serveMixedRate, dur)
	e2, _, _, err := setupRepeated(1, o.twitterConfig(), spec,
		func(i int) string { return dataDir(o, "serve-mixed-traced", i) }, tracedWrap(tr))
	if err != nil {
		return err
	}
	defer func() { e2.close(); os.RemoveAll(e2.dir) }()
	tr.on.Store(true)
	tc := newClient(e2.url, conns(), tr)
	before := scrape(tc)
	tres := runServeMixedOnce(tc.do, ops, rep, "serve-mixed traced")
	after := scrape(tc)
	tc.close()
	e2.wedged = tres.wedged
	layerSetup(rep, e2)
	layerHTTP(rep, tr.snapshot(), tres.outs, kindRead, before, after)
	rep.layer("trace.overhead_pct", "%", overheadPct(untracedGeo, geomean(tres.outs)), 0)
	httpSpans := tr.snapshot()

	e3, _, _, err := setupRepeated(1, o.twitterConfig(), spec,
		func(i int) string { return dataDir(o, "serve-mixed-replay", i) }, nil)
	if err != nil {
		return err
	}
	defer func() { e3.close(); os.RemoveAll(e3.dir) }()
	rp := newReplayer(e3, tr)
	e3.wedged = rp.openLoop(ops)
	rp.report(rep)
	rep.spans = tr.snapshot()
	rep.Paths = blockingPaths(httpSpans, tres.outs, rp)
	return nil
}

// measureServeMixed sends the untraced schedule over HTTP, records the
// end-to-end metrics (saving a goroutine dump if the server wedged) and
// returns the geometric-mean op latency for the traced run to compare
// with.
func measureServeMixed(e *env, d *dataset, o options, rep *report) (float64, error) {
	dur := time.Duration(o.seconds) * time.Second
	ops := serveMixedOps(d, o.seed, serveMixedRate, dur)
	rep.Header.Params["ops"] = len(ops)
	fmt.Printf("serve-mixed: %d ops over %v at %.0f/s on %d connections\n", len(ops), dur, serveMixedRate, conns())

	c := newClient(e.url, conns(), nil)
	res := runServeMixedOnce(c.do, ops, rep, "serve-mixed")
	c.close()
	rep.Attempted, rep.Failed = len(res.outs), res.failed
	if res.wedged {
		e.wedged = true
		rep.Wedged = true
		rep.Dump = filepath.Join(o.out, rep.baseName()+".goroutines.txt")
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return 0, err
		}
		if err := writeGoroutineDump(rep.Dump); err != nil {
			return 0, fmt.Errorf("writing goroutine dump: %w", err)
		}
	}
	setReadMetrics(rep, res.readMS)
	setOpMetrics(rep, res.outs, int(serveMixedRate))
	rep.set("update_p50_ms", "ms", quantile(res.updMS, 0.5), len(res.updMS))
	rep.set("update_p99_ms", "ms", quantile(res.updMS, 0.99), len(res.updMS))
	rep.set("heavy_p50_ms", "ms", quantile(res.heavyMS, 0.5), len(res.heavyMS))
	rep.set("ops_per_s", "1/s", float64(len(ops)-res.failed)/dur.Seconds(), len(ops))
	return geomean(res.outs), nil
}
