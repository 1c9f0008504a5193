package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"repro/internal/pgrdf"
	"repro/internal/wal"
)

// Write-durable sizing, frozen so a faster program gets the same WAL
// and therefore comparable recovery: the op count is writeOpsPerSecond
// × --seconds, and a checkpoint falls due every checkpointEvery
// acknowledged updates. One client: with one per core, the clients, the
// handlers and the follower contend for two cores and identical runs
// differed by a quarter or more; one client keeps runs on a quiet host
// within a few percent.
const (
	writeOpsPerSecond = 2000
	checkpointEvery   = 2000
	writeDeadline     = 10 * time.Second
)

// edgeState is what the acknowledged ops say about one edge.
type edgeState uint8

const (
	stateUnknown edgeState = iota // never acknowledged, or the last op on it failed
	statePresent
	stateAbsent
)

// writeResult is what one pass over the stream measured.
type writeResult struct {
	outs     []outcome
	wedged   bool
	updMS    []float64
	askMS    []float64
	ckptMS   []float64
	acked    int64
	failed   int
	wall     time.Duration
	states   []edgeState
	catchup  time.Duration
	applied  int64
	recovery time.Duration
	replayed int64
	// bootstraps is the follower's count after the run: the first, plus
	// one per divergence from the leader's history.
	bootstraps int64
	// before and after are the leader's counters around the stream, read
	// only when the phase is given a client to read them with.
	before, after counters
}

// runWritePhase runs the stream closed loop against e, checkpointing
// every checkpointEvery acknowledged updates and checking each ASK
// against the write it follows. Then it waits for the follower,
// compares the follower's snapshot with the leader's, closes the
// leader and times wal.Open on its directory.
//
// A checkpoint that falls due first waits until the follower has
// applied the whole log, so the follower adopts the new epoch in place;
// its latency runs from the moment it fell due and so includes that
// wait. A follower a few records behind when the log is truncated
// diverges and re-bootstraps while the leader streams the snapshot
// under its commit lock — a stall of seconds that, left to timing,
// struck some runs and not others (README.md). A re-bootstrap despite
// the wait fails the run.
func runWritePhase(exec execFn, e *env, w writeStream, rep *report, tr *tracer, counterClient *client, what string) writeResult {
	r := writeResult{states: make([]edgeState, len(w.edges))}
	steps := make(map[int64]writeStep, len(w.steps))
	for _, s := range w.steps {
		steps[s.op.id] = s
	}
	if counterClient != nil {
		r.before = scrape(counterClient)
	}
	lastOK := false
	ckptID := int64(1) << 30
	start := time.Now()
	r.wedged = runClosedLoop(exec, w.ops(), writeDeadline, func(o outcome) {
		st := steps[o.op.id]
		r.outs = append(r.outs, o)
		if !o.ok() {
			r.failed++
		}
		switch o.op.kind {
		case kindUpdate:
			lastOK = o.ok()
			if !o.ok() {
				r.states[st.edge] = stateUnknown
				return
			}
			if err := checkBody(o); err != nil {
				rep.fail("%s %s (op %d): %v", what, o.op.name, o.op.id, err)
			}
			if st.insert {
				r.states[st.edge] = statePresent
			} else {
				r.states[st.edge] = stateAbsent
			}
			r.updMS = append(r.updMS, ms(o.lat))
			if r.acked++; r.acked%checkpointEvery == 0 {
				due := time.Now()
				waitFollower(e, nil, rep, what)
				ckptID++
				out := send(exec, nil, &op{id: ckptID, kind: kindCheckpoint, name: "checkpoint"}, writeDeadline, due)
				r.outs = append(r.outs, out)
				if out.ok() {
					r.ckptMS = append(r.ckptMS, ms(out.lat))
				} else {
					r.failed++
					rep.fail("%s checkpoint: %v", what, out.err)
				}
			}
		case kindAsk:
			if !o.ok() || !lastOK {
				return
			}
			got, err := askJSON(o.body)
			if err != nil {
				rep.fail("%s ask (op %d): %v", what, o.op.id, err)
				return
			}
			if got != st.insert {
				rep.fail("%s ask (op %d): read-your-writes saw present=%v after an acknowledged %s", what, o.op.id, got, map[bool]string{true: "insert", false: "delete"}[st.insert])
			}
			r.askMS = append(r.askMS, ms(o.lat))
		}
	})
	r.wall = time.Since(start)
	if r.wedged {
		e.wedged = true
		return r
	}
	if counterClient != nil {
		r.after = scrape(counterClient)
	}
	r.catchup, r.applied = waitFollower(e, tr, rep, what)
	r.bootstraps = e.follower.Status().Bootstraps
	if r.bootstraps != 1 {
		rep.fail("%s: the follower bootstrapped %d times; it was caught up at every checkpoint, so once is all it needs", what, r.bootstraps)
	}
	var lb, fb bytes.Buffer
	if err := e.st.Snapshot(&lb); err != nil {
		rep.fail("%s leader snapshot: %v", what, err)
	}
	if err := e.follower.Store().Snapshot(&fb); err != nil {
		rep.fail("%s follower snapshot: %v", what, err)
	}
	if !bytes.Equal(lb.Bytes(), fb.Bytes()) {
		rep.fail("%s: follower snapshot (%d bytes) differs from the leader's (%d bytes)", what, fb.Len(), lb.Len())
	}
	e.close()
	r.recovery, r.replayed = recoverAndCheck(e.dir, w, r.states, tr, rep, what)
	return r
}

// waitFollower polls the follower's Status until it has applied every
// record the leader logged, and returns how long that took from the
// last acknowledgement together with the follower's applied records.
func waitFollower(e *env, tr *tracer, rep *report, what string) (time.Duration, int64) {
	start := time.Now()
	want := e.log.Position()
	for {
		sp := tr.start("repl.status", 0, 0)
		st := e.follower.Status()
		sp.end()
		if st.Epoch == want.Epoch && st.NextSeq >= want.NextSeq {
			return time.Since(start), st.AppliedRecords
		}
		if time.Since(start) > 60*time.Second {
			rep.fail("%s: follower did not catch up in 60s (at seq %d, leader %d)", what, st.NextSeq, want.NextSeq)
			return time.Since(start), st.AppliedRecords
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// recoverAndCheck times wal.Open on the closed leader's directory and
// checks that every acknowledged insert survived and every acknowledged
// delete stayed deleted.
func recoverAndCheck(dir string, w writeStream, states []edgeState, tr *tracer, rep *report, what string) (time.Duration, int64) {
	sp := tr.start("wal.recover", 0, 0)
	start := time.Now()
	st, l, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways, Indexes: serveIndexes})
	d := time.Since(start)
	sp.end()
	if err != nil {
		rep.fail("%s recovery: %v", what, err)
		return d, 0
	}
	defer l.Close()
	model := pgrdf.PartitionNames(prefixOf(pgrdf.SP)).Topology
	for i, ne := range w.edges {
		want := states[i]
		if want == stateUnknown {
			continue
		}
		if got := st.Contains(model, ne.probe); got != (want == statePresent) {
			rep.fail("%s recovery: edge %s present=%v, want %v", what, ne.probe.P, got, want == statePresent)
		}
	}
	return d, l.Stats().ReplayedRecords
}

// runWriteDurable is the write-durable workload: the SP store with a WAL
// at -fsync always and an in-process follower, driven closed loop
// through a fixed number of ops.
func runWriteDurable(o options, rep *report) error {
	spec := envSpec{schemes: []pgrdf.Scheme{pgrdf.SP}, wal: true, sync: wal.SyncAlways, follower: true}
	total := o.seconds * writeOpsPerSecond
	rep.Header.Params = map[string]any{"schemes": "SP", "loop": "closed", "clients": 1, "ops": total,
		"wal": "fsync always", "checkpoint_every_updates": checkpointEvery, "follower": true,
		"deadline_s": writeDeadline.Seconds()}
	var tr *tracer
	if o.trace {
		tr = newTracer()
		tr.on.Store(false)
	}
	e, g, secs, err := setupRepeated(o.setupCount(), o.twitterConfig(), spec,
		func(i int) string { return dataDir(o, "write-durable", i) }, tracedWrap(tr))
	if err != nil {
		return err
	}
	defer func() { e.close(); os.RemoveAll(e.dir) }()
	d := describe(g, o.scale, false)
	g = nil
	rep.set("setup_s", "s", median(secs), len(secs))
	heap := heapMB()
	fmt.Printf("write-durable: %d ops on 1 client, checkpoint every %d updates\n", total, checkpointEvery)
	untracedGeo := measureWriteDurable(e, d, o.seed, total, rep)
	// The op stream and the outcomes are gone by now, so the heap is
	// the program's.
	rep.set("heap_mb", "MB", max(heap, heapMB()), 2)
	if !o.trace {
		return nil
	}

	// Traced run: a fresh set-up, the same stream with spans on, then
	// the in-process replay on a third.
	w := writeDurableOps(d, o.seed, total)
	e2, _, _, err := setupRepeated(1, o.twitterConfig(), spec,
		func(i int) string { return dataDir(o, "write-durable-traced", i) }, tracedWrap(tr))
	if err != nil {
		return err
	}
	defer func() { e2.close(); os.RemoveAll(e2.dir) }()
	layerSetup(rep, e2)
	tr.on.Store(true)
	tc := newClient(e2.url, 1, tr)
	tres := runWritePhase(tc.do, e2, w, rep, tr, tc, "write-durable traced")
	tc.close()
	httpSpans := tr.snapshot()
	layerHTTP(rep, httpSpans, tres.outs, kindAsk, tres.before, tres.after)
	rep.layer("repl.catchup_ms", "ms", ms(tres.catchup), 1)
	rep.layer("repl.applied_records", "count", float64(tres.applied), 0)
	rep.layer("wal.recover_s", "s", tres.recovery.Seconds(), 1)
	rep.layer("wal.replayed_records", "count", float64(tres.replayed), 0)
	rep.layer("trace.overhead_pct", "%", overheadPct(untracedGeo, geomean(tres.outs)), 0)

	e3, _, _, err := setupRepeated(1, o.twitterConfig(), envSpec{schemes: spec.schemes, wal: true, sync: wal.SyncAlways},
		func(i int) string { return dataDir(o, "write-durable-replay", i) }, nil)
	if err != nil {
		return err
	}
	defer func() { e3.close(); os.RemoveAll(e3.dir) }()
	rp := newReplayer(e3, tr)
	rp.closedLoop(w.ops())
	rp.report(rep)
	rep.spans = tr.snapshot()
	rep.Paths = blockingPaths(httpSpans, tres.outs, rp)
	return nil
}

// measureWriteDurable runs the untraced stream over HTTP, records the
// end-to-end metrics and returns the geometric-mean op latency for the
// traced run to compare with.
func measureWriteDurable(e *env, d *dataset, seed int64, total int, rep *report) float64 {
	c := newClient(e.url, 1, nil)
	defer c.close()
	res := runWritePhase(c.do, e, writeDurableOps(d, seed, total), rep, nil, nil, "write-durable")
	rep.Attempted, rep.Failed = len(res.outs), res.failed
	rep.Wedged = res.wedged
	rep.set("update_p50_ms", "ms", quantile(res.updMS, 0.5), len(res.updMS))
	rep.set("update_p99_ms", "ms", quantile(res.updMS, 0.99), len(res.updMS))
	setReadMetrics(rep, res.askMS)
	setOpMetrics(rep, res.outs, 1000)
	rep.set("update_tput", "updates/s", float64(res.acked)/res.wall.Seconds(), int(res.acked))
	rep.set("ops_per_s", "1/s", float64(len(res.outs)-res.failed)/res.wall.Seconds(), len(res.outs))
	rep.set("recovery_s", "s", res.recovery.Seconds(), 1)
	rep.set("checkpoint_p50_ms", "ms", quantile(res.ckptMS, 0.5), len(res.ckptMS))
	rep.set("repl_bootstraps", "count", float64(res.bootstraps), 0)
	rep.set("repl_catchup_ms", "ms", ms(res.catchup), 1)
	return geomean(res.outs)
}
