package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/httpapi"
	"repro/internal/pgrdf"
	"repro/internal/sparql"
	"repro/internal/wal"
)

// replayPasses caps the analytic passes the traced replay repeats.
const replayPasses = 3

// replayer replays a workload's op stream in-process through the
// layers' public functions, with a span around every call: parse,
// profiled execution, update evaluation with a CommitHook that wraps
// wal.Log.Commit and the apply it is handed, result serialization,
// graph projection and algorithm runs, and incremental checkpoints.
type replayer struct {
	e   *env
	tr  *tracer
	sem chan struct{} // the HTTP run's connection budget

	mu  sync.Mutex
	ops map[int64]*op
	fig map[string]string // analytic: op name -> paper figure
	//  per figure: guard ticks (rows examined) and result rows
	ticks, rows map[string]int64
	hashJoins   int64
	queries     int64

	updates     atomic.Int64
	userBytes   atomic.Int64
	walBytes    atomic.Int64
	ckptBytes   atomic.Int64
	checkpoints atomic.Int64
}

func newReplayer(e *env, tr *tracer) *replayer {
	tr.on.Store(true)
	return &replayer{e: e, tr: tr, sem: make(chan struct{}, conns()), ops: map[int64]*op{},
		fig: map[string]string{}, ticks: map[string]int64{}, rows: map[string]int64{}}
}

// engine builds an engine over the replay store with the server's
// default budget, as httpapi.Server does.
func (r *replayer) engine() *sparql.Engine {
	eng := sparql.NewEngine(r.e.st)
	cfg := httpapi.DefaultConfig()
	eng.Limits = sparql.Budget{MaxRows: cfg.MaxRows, MaxBindings: cfg.MaxBindings}
	return eng
}

func (r *replayer) note(o *op) {
	r.mu.Lock()
	r.ops[o.id] = o
	r.mu.Unlock()
}

// query replays a SELECT: parse, profiled execution, serialization.
func (r *replayer) query(ctx context.Context, eng *sparql.Engine, o *op) (int, []byte, error) {
	r.note(o)
	root := r.tr.start("replay."+o.kind.String(), 0, o.id)
	defer root.end()
	p := r.tr.start("sparql.parse", root.id, o.id)
	_, err := sparql.Parse(o.text)
	p.end()
	if err != nil {
		return http.StatusBadRequest, nil, err
	}
	x := r.tr.start("sparql.exec", root.id, o.id)
	res, prof, err := eng.QueryProfiledContext(ctx, o.model, o.text)
	x.end()
	if err != nil {
		return http.StatusInternalServerError, nil, err
	}
	s := r.tr.start("httpapi.serialize", root.id, o.id)
	err = httpapi.WriteResultsJSON(io.Discard, res)
	s.end()
	r.noteProfile(o, prof, res.Len())
	return http.StatusOK, nil, err
}

func (r *replayer) noteProfile(o *op, prof *sparql.Profile, rows int) {
	var ticks, hj int64
	var walk func([]*sparql.ProfileNode)
	walk = func(ns []*sparql.ProfileNode) {
		for _, n := range ns {
			ticks += n.GuardTicks
			if n.HashJoin {
				hj++
			}
			walk(n.Children)
		}
	}
	if prof != nil {
		walk(prof.Plan)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fig[o.name]
	r.ticks[f] += ticks
	r.rows[f] += int64(rows)
	r.hashJoins += hj
	r.queries++
}

// ask replays an ASK: parse, execution, serialization.
func (r *replayer) ask(ctx context.Context, eng *sparql.Engine, o *op) (int, []byte, error) {
	r.note(o)
	root := r.tr.start("replay.ask", 0, o.id)
	defer root.end()
	p := r.tr.start("sparql.parse", root.id, o.id)
	_, err := sparql.Parse(o.text)
	p.end()
	if err != nil {
		return http.StatusBadRequest, nil, err
	}
	x := r.tr.start("sparql.exec", root.id, o.id)
	found, err := eng.AskContext(ctx, o.model, o.text)
	x.end()
	if err != nil {
		return http.StatusInternalServerError, nil, err
	}
	var body bytes.Buffer
	s := r.tr.start("httpapi.serialize", root.id, o.id)
	err = httpapi.WriteBooleanJSON(&body, found)
	s.end()
	return http.StatusOK, body.Bytes(), err
}

// updateEngine is the engine of one sequence of updates; its CommitHook
// wraps the WAL commit and the apply callback in spans of the current
// update.
type updateEngine struct {
	eng  *sparql.Engine
	op   int64
	span int64
}

func (r *replayer) newUpdateEngine() *updateEngine {
	le := &updateEngine{eng: r.engine()}
	l := r.e.log
	le.eng.CommitHook = func(muts []sparql.Mutation, apply func() error) error {
		var user int64
		for _, m := range muts {
			user += int64(len(m.Quad.String()) + 3)
		}
		r.userBytes.Add(user)
		c := r.tr.start("wal.commit", le.span, le.op)
		defer c.end()
		return l.Commit(walBatch(muts), func() error {
			a := r.tr.start("store.apply", c.id, le.op)
			defer a.end()
			return apply()
		})
	}
	return le
}

// walBatch converts the engine's quad delta into a WAL batch.
func walBatch(muts []sparql.Mutation) wal.Batch {
	ops := make([]wal.Op, len(muts))
	for i, m := range muts {
		kind := wal.OpDelete
		if m.Insert {
			kind = wal.OpInsert
		}
		ops[i] = wal.Op{Kind: kind, Model: m.Model, Quad: m.Quad}
	}
	return wal.Batch{Ops: ops}
}

// update replays an update: parse, then evaluation whose commit runs
// through the engine's CommitHook.
func (r *replayer) update(ctx context.Context, le *updateEngine, o *op) (int, []byte, error) {
	r.note(o)
	root := r.tr.start("replay.update", 0, o.id)
	defer root.end()
	p := r.tr.start("sparql.parse", root.id, o.id)
	_, err := sparql.ParseUpdate(o.text)
	p.end()
	if err != nil {
		return http.StatusBadRequest, nil, err
	}
	u := r.tr.start("sparql.update", root.id, o.id)
	le.op, le.span = o.id, u.id
	res, err := le.eng.UpdateContext(ctx, o.model, o.text)
	u.end()
	if err != nil {
		return http.StatusInternalServerError, nil, err
	}
	r.updates.Add(1)
	return http.StatusOK, []byte(fmt.Sprintf(`{"inserted":%d,"deleted":%d}`, res.Inserted, res.Deleted)), nil
}

// checkpoint replays POST /checkpoint?mode=incremental.
func (r *replayer) checkpoint(o *op) error {
	r.note(o)
	l := r.e.log
	r.walBytes.Add(l.Stats().WalBytes)
	sp := r.tr.start("wal.checkpoint", 0, o.id)
	err := l.CheckpointIncremental(r.e.st)
	sp.end()
	r.ckptBytes.Add(l.Stats().LastCheckpointBytes)
	r.checkpoints.Add(1)
	return err
}

// algo replays POST /algo: a cold call projects the CSR, warm calls
// reuse it, as the server's single-entry cache does.
func (r *replayer) algo(ctx context.Context, o *op, cs **graph.CSR) error {
	r.note(o)
	var req struct{ Algo, Model, Scheme string }
	if err := json.Unmarshal([]byte(o.text), &req); err != nil {
		return err
	}
	root := r.tr.start("replay.algo", 0, o.id)
	defer root.end()
	if req.Algo == "pagerank" {
		scheme := map[string]pgrdf.Scheme{"RF": pgrdf.RF, "NG": pgrdf.NG, "SP": pgrdf.SP}[req.Scheme]
		p := r.tr.start("graph.project", root.id, o.id)
		c, err := graph.Project(ctx, r.e.st, graph.ProjectOptions{Model: req.Model, Scheme: scheme, Reverse: true}, graph.Budget{})
		p.end()
		if err != nil {
			return err
		}
		*cs = c
	}
	run := r.tr.start("graph.run", root.id, o.id)
	defer run.end()
	var err error
	runner := graph.Runner{}
	switch req.Algo {
	case "pagerank":
		_, err = runner.PageRank(ctx, *cs, graph.PageRankOptions{})
	case "wcc":
		_, err = runner.WCC(ctx, *cs)
	case "triangles":
		_, err = runner.Triangles(ctx, *cs)
	}
	return err
}

// analytic replays the first passes of the analytic stream.
func (r *replayer) analytic(cases []eqCase, passes int) {
	for _, c := range cases {
		r.fig[c.label()] = c.fig
	}
	eng := r.engine()
	var cs *graph.CSR
	ctx := context.Background()
	for p := 0; p < passes; p++ {
		for _, o := range analyticOps(cases, int64(1)<<40+int64(p*1000)) {
			if o.kind == kindAlgo {
				r.algo(ctx, o, &cs) //nolint — the HTTP run already checked these calls
				continue
			}
			r.query(ctx, eng, o) //nolint — as above
		}
	}
}

// guarded runs fn under the connection budget and returns when fn does
// or ctx ends, whichever is first. A call stuck on a store lock is
// left behind, as a wedged request is over HTTP.
func (r *replayer) guarded(ctx context.Context, fn func() (int, []byte, error)) (int, []byte, error) {
	type ret struct {
		status int
		body   []byte
		err    error
	}
	ch := make(chan ret, 1)
	go func() {
		select {
		case r.sem <- struct{}{}:
		case <-ctx.Done():
			ch <- ret{err: ctx.Err()}
			return
		}
		defer func() { <-r.sem }()
		s, b, err := fn()
		ch <- ret{s, b, err}
	}()
	select {
	case x := <-ch:
		return x.status, x.body, x.err
	case <-ctx.Done():
		return 0, nil, ctx.Err()
	}
}

// openLoop replays the serve-mixed schedule in-process at the same
// arrival times and connection budget. It reports whether the replay
// wedged too.
func (r *replayer) openLoop(ops []*op) bool {
	eng := r.engine()
	_, wedged := runOpenLoop(func(ctx context.Context, o *op) (int, []byte, error) {
		return r.guarded(ctx, func() (int, []byte, error) {
			if o.kind == kindUpdate {
				// Open-loop updates overlap, so each gets its own hook state.
				return r.update(ctx, r.newUpdateEngine(), o)
			}
			return r.query(ctx, eng, o)
		})
	}, ops, serveDeadline)
	return wedged
}

// closedLoop replays the write-durable stream in-process,
// checkpointing every checkpointEvery updates.
func (r *replayer) closedLoop(ops []*op) {
	le := r.newUpdateEngine()
	ctx := context.Background()
	acked := 0
	ckpt := int64(1) << 30
	for _, o := range ops {
		if o.kind == kindAsk {
			r.ask(ctx, le.eng, o) //nolint — the HTTP run already checked these answers
			continue
		}
		if _, _, err := r.update(ctx, le, o); err == nil {
			if acked++; acked%checkpointEvery == 0 {
				ckpt++
				r.checkpoint(&op{id: ckpt, kind: kindCheckpoint, name: "checkpoint"}) //nolint
			}
		}
	}
	r.walBytes.Add(r.e.log.Stats().WalBytes)
}

// report turns the replay spans and counters into per-layer metrics.
func (r *replayer) report(rep *report) {
	spans := r.tr.snapshot()
	self := selfTimes(spans)
	r.mu.Lock()
	defer r.mu.Unlock()
	byName := map[string][]float64{} // span name -> durations (ms)
	selfBy := map[string][]float64{} // span name -> self times (ms)
	byOp := map[string][]float64{}   // per-query and per-scheme metric name -> durations
	readExec := []float64{}
	for _, s := range spans {
		o, ok := r.ops[s.Op]
		if !ok {
			continue
		}
		d := ms(s.dur())
		byName[s.Name] = append(byName[s.Name], d)
		selfBy[s.Name] = append(selfBy[s.Name], ms(self[s.ID]))
		switch s.Name {
		case "sparql.exec":
			byOp["sparql.exec_ms."+o.name] = append(byOp["sparql.exec_ms."+o.name], d)
			if o.kind == kindRead || o.kind == kindAsk {
				readExec = append(readExec, d)
			}
		case "graph.project":
			_, sch := splitLabel(o.name)
			byOp["graph.project_ms."+sch] = append(byOp["graph.project_ms."+sch], d)
		case "graph.run":
			a, _ := splitLabel(o.name)
			byOp["graph.run_ms."+a] = append(byOp["graph.run_ms."+a], d)
		}
	}
	us := func(xs []float64) float64 { return 1000 * quantile(xs, 0.5) }
	if xs := byName["sparql.parse"]; len(xs) > 0 {
		rep.layer("sparql.parse_p50_us", "us", us(xs), len(xs))
	}
	if xs := byName["httpapi.serialize"]; len(xs) > 0 {
		rep.layer("httpapi.serialize_p50_us", "us", us(xs), len(xs))
	}
	if len(readExec) > 0 {
		rep.layer("sparql.read_exec_p50_ms", "ms", quantile(readExec, 0.5), len(readExec))
		rep.layer("sparql.read_exec_p99_ms", "ms", quantile(readExec, 0.99), len(readExec))
	}
	if len(r.fig) > 0 {
		for k, xs := range byOp {
			rep.layer(k, "ms", median(xs), len(xs))
		}
		for _, f := range figures {
			rep.layer("sparql.rows_per_result."+f, "ratio", float64(r.ticks[f])/float64(max(1, r.rows[f])), 0)
		}
	}
	if r.queries > 0 {
		rep.layer("sparql.hash_join_steps", "1/query", float64(r.hashJoins)/float64(r.queries), int(r.queries))
	}
	if xs := selfBy["sparql.update"]; len(xs) > 0 {
		rep.layer("sparql.update_eval_p50_ms", "ms", quantile(xs, 0.5), len(xs))
		rep.layer("store.apply_p50_ms", "ms", quantile(byName["store.apply"], 0.5), len(byName["store.apply"]))
		c := selfBy["wal.commit"]
		rep.layer("wal.commit_p50_ms", "ms", quantile(c, 0.5), len(c))
		rep.layer("wal.commit_p99_ms", "ms", quantile(c, 0.99), len(c))
	}
	if n := r.updates.Load(); n > 0 && r.checkpoints.Load() > 0 {
		ck := byName["wal.checkpoint"]
		rep.layer("wal.checkpoint_p50_ms", "ms", quantile(ck, 0.5), len(ck))
		rep.layer("wal.checkpoints", "count", float64(r.checkpoints.Load()), 0)
		rep.layer("wal.bytes_per_update", "B", float64(r.walBytes.Load())/float64(n), int(n))
		rep.layer("wal.write_amp", "ratio", float64(r.walBytes.Load()+r.ckptBytes.Load())/float64(max(1, r.userBytes.Load())), 0)
	}
}

// classLayers names the replay spans on each op class's blocking path.
var classLayers = map[opKind][]string{
	kindRead:       {"sparql.parse", "sparql.exec", "httpapi.serialize"},
	kindHeavy:      {"sparql.parse", "sparql.exec", "httpapi.serialize"},
	kindAsk:        {"sparql.parse", "sparql.exec", "httpapi.serialize"},
	kindUpdate:     {"sparql.parse", "sparql.update", "wal.commit", "store.apply"},
	kindAlgo:       {"graph.project", "graph.run"},
	kindCheckpoint: {"wal.checkpoint"},
}

// blockingPaths sets, per op class, the mean self time of each layer on
// the class's blocking path (the client's own time from the HTTP run,
// the layers' from the replay) next to the class's mean end-to-end
// time, and the share of it they cover. Means, unlike medians, add up.
func blockingPaths(httpSpans []span, outs []outcome, rp *replayer) []blockingPath {
	hix := indexSpans(httpSpans, outs)
	rself := selfTimes(rp.tr.snapshot())
	rspans := rp.tr.snapshot()
	rp.mu.Lock()
	defer rp.mu.Unlock()
	var out []blockingPath
	for k := kindRead; k <= kindCheckpoint; k++ {
		e2e := hix.values("client."+k.String(), false, k)
		if len(e2e) == 0 {
			continue
		}
		p := blockingPath{Class: k.String(), E2EMS: mean(e2e), Layers: map[string]float64{}}
		p.Layers["client.transport"] = mean(hix.values("client."+k.String(), true, k))
		nOps := 0
		for _, o := range rp.ops {
			if o.kind == k {
				nOps++
			}
		}
		for _, name := range classLayers[k] {
			var total float64
			for _, s := range rspans {
				if o, ok := rp.ops[s.Op]; ok && o.kind == k && s.Name == name {
					total += ms(rself[s.ID])
				}
			}
			if nOps > 0 {
				p.Layers[name] = total / float64(nOps)
			}
		}
		for _, v := range p.Layers {
			p.SumMS += v
		}
		p.Covered = p.SumMS / p.E2EMS
		out = append(out, p)
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
