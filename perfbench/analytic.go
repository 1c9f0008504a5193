package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	"repro/internal/pgrdf"
)

// analyticDeadline bounds one analytic request; EQ11e and cold /algo
// calls are the slowest.
const analyticDeadline = 60 * time.Second

var algoSchemes = []pgrdf.Scheme{pgrdf.RF, pgrdf.NG, pgrdf.SP}
var algoNames = []string{"pagerank", "wcc", "triangles"}

// analyticOps builds one pass: the 32 EQ × scheme texts, then for each
// of RF, NG and SP a cold /algo pagerank (the single-entry CSR cache
// holds the previous scheme's projection) followed by warm wcc and
// triangles calls. Op IDs start at base.
func analyticOps(cases []eqCase, base int64) []*op {
	var ops []*op
	next := func() int64 { base++; return base }
	for _, c := range cases {
		ops = append(ops, &op{id: next(), kind: kindRead, name: c.label(), model: c.model, text: c.text})
	}
	for _, s := range algoSchemes {
		for _, a := range algoNames {
			body, _ := json.Marshal(map[string]any{"algo": a, "model": prefixOf(s), "scheme": s.String(), "k": 10})
			ops = append(ops, &op{id: next(), kind: kindAlgo, name: a + "." + s.String(), text: string(body)})
		}
	}
	return ops
}

// analyticResult is what the analytic passes measured.
type analyticResult struct {
	figMS    map[string][]float64 // per pass, summed over both schemes
	coldMS   []float64            // per pass, cold /algo calls
	warmMS   []float64            // per pass, warm /algo calls
	readMS   []float64            // every query latency
	opsDone  int
	attempts int
	failed   int
	wall     time.Duration
	outs     []outcome
}

// runAnalyticPasses runs the passes back to back on one client and
// checks every answer: the same count every pass, NG equal to SP, EQ12
// equal to the in-memory triangle count, and /algo replies identical
// across RF, NG and SP with WCC matching the in-memory components.
func runAnalyticPasses(exec execFn, cases []eqCase, passes int, d *dataset, rep *report) analyticResult {
	res := analyticResult{figMS: map[string][]float64{}}
	counts := map[string]int{}
	byCase := map[string]eqCase{}
	for _, c := range cases {
		byCase[c.label()] = c
	}
	start := time.Now()
	for p := 0; p < passes; p++ {
		ops := analyticOps(cases, int64(p*1000))
		fig := map[string]float64{}
		var cold, warm float64
		prints := map[string]map[string]string{} // algo -> scheme -> fingerprint
		runClosedLoop(exec, ops, analyticDeadline, func(o outcome) {
			res.attempts++
			res.outs = append(res.outs, o)
			if !o.ok() {
				res.failed++
				rep.fail("analytic %s: %v", o.op.name, o.err)
				return
			}
			res.opsDone++
			lat := ms(o.lat)
			if o.op.kind == kindAlgo {
				checkAlgo(o, d, prints, rep, &cold, &warm)
				return
			}
			c := byCase[o.op.name]
			fig[c.fig] += lat
			res.readMS = append(res.readMS, lat)
			n, err := countJSON(o.body)
			if err != nil {
				rep.fail("analytic %s: %v", o.op.name, err)
				return
			}
			if prev, seen := counts[c.label()]; seen && prev != n {
				rep.fail("analytic %s: %d results, earlier pass had %d", c.label(), n, prev)
			}
			counts[c.label()] = n
			if c.key == "EQ12" && int64(n) != d.triangles {
				rep.fail("analytic %s: %d triangles, pg.Graph.CountTriangles says %d", c.label(), n, d.triangles)
			}
		})
		for _, f := range figures {
			res.figMS[f] = append(res.figMS[f], fig[f])
		}
		res.coldMS = append(res.coldMS, cold)
		res.warmMS = append(res.warmMS, warm)
		for a, bySch := range prints {
			if len(bySch) != len(algoSchemes) {
				continue // a failed call is already reported
			}
			if bySch["RF"] != bySch["NG"] || bySch["NG"] != bySch["SP"] {
				rep.fail("analytic /algo %s differs across schemes: RF %s | NG %s | SP %s", a, bySch["RF"], bySch["NG"], bySch["SP"])
			}
		}
	}
	res.wall = time.Since(start)
	// The paper's invariant: both schemes give identical answers.
	for _, c := range cases {
		if c.scheme != pgrdf.NG {
			continue
		}
		for _, o := range cases {
			if o.key == c.key && o.scheme == pgrdf.SP {
				ng, okN := counts[c.label()]
				sp, okS := counts[o.label()]
				if okN && okS && ng != sp {
					rep.fail("analytic %s: NG %s gives %d results, SP %s gives %d", c.key, c.eq, ng, o.eq, sp)
				}
			}
		}
	}
	return res
}

func checkAlgo(o outcome, d *dataset, prints map[string]map[string]string, rep *report, cold, warm *float64) {
	var a algoReply
	if err := json.Unmarshal(o.body, &a); err != nil {
		rep.fail("analytic %s: unparseable reply: %v", o.op.name, err)
		return
	}
	algo, scheme := splitLabel(o.op.name)
	if algo == "pagerank" {
		if a.CSRCached {
			rep.fail("analytic %s: expected a cold CSR projection, got a cache hit", o.op.name)
		}
		*cold += ms(o.lat)
	} else {
		if !a.CSRCached {
			rep.fail("analytic %s: expected a CSR cache hit", o.op.name)
		}
		*warm += ms(o.lat)
	}
	if algo == "wcc" && a.Components != d.components {
		rep.fail("analytic %s: %d components, pg.Graph.ConnectedComponents says %d", o.op.name, a.Components, d.components)
	}
	if prints[algo] == nil {
		prints[algo] = map[string]string{}
	}
	prints[algo][scheme] = a.fingerprint()
}

func splitLabel(s string) (string, string) {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '.' {
			return s[:i], s[i+1:]
		}
	}
	return s, ""
}

// runAnalytic is the analytic workload: RF, NG and SP of one graph in
// one store, no WAL, one client running fixed passes of EQ1–EQ12 and
// /algo.
func runAnalytic(o options, rep *report) error {
	spec := envSpec{schemes: []pgrdf.Scheme{pgrdf.RF, pgrdf.NG, pgrdf.SP}}
	passes := o.analyticPasses()
	rep.Header.Params = map[string]any{"schemes": "RF,NG,SP", "passes": passes, "clients": 1,
		"loop": "closed", "wal": "none", "deadline_s": analyticDeadline.Seconds()}
	var tr *tracer
	if o.trace {
		tr = newTracer()
		tr.on.Store(false)
	}
	e, g, secs, err := setupRepeated(o.setupCount(), o.twitterConfig(), spec, func(int) string { return "" }, tracedWrap(tr))
	if err != nil {
		return err
	}
	defer e.close()
	d := describe(g, o.scale, true)
	g = nil
	rep.set("setup_s", "s", median(secs), len(secs))
	heap := heapMB()
	cases := analyticCases(d.tag, d.start)
	fmt.Printf("analytic: tag %q, EQ11 start %s, %d quads, %d passes\n", d.tag, d.start, e.quads, passes)

	untracedGeo := measureAnalytic(e, cases, passes, d, rep)
	// The outcomes are gone by now, so the heap is the program's.
	rep.set("heap_mb", "MB", max(heap, heapMB()), 2)
	if !o.trace {
		return nil
	}

	// Traced run: the same passes over HTTP with spans on both sides,
	// counter deltas from /metrics and /stats, then the in-process
	// replay of the same op stream.
	tr.on.Store(true)
	tc := newClient(e.url, 1, tr)
	defer tc.close()
	before := scrape(tc)
	tres := runAnalyticPasses(tc.do, cases, passes, d, rep)
	after := scrape(tc)
	layerSetup(rep, e)
	layerHTTP(rep, tr.snapshot(), tres.outs, kindRead, before, after)
	rep.layer("graph.csr_cache_hit_ratio", "ratio",
		ratio(after.stats["algoCSRCacheHits"]-before.stats["algoCSRCacheHits"],
			after.stats["algoCSRCacheMisses"]-before.stats["algoCSRCacheMisses"]), 0)
	rep.layer("trace.overhead_pct", "%", overheadPct(untracedGeo, geomean(tres.outs)), 0)

	rp := newReplayer(e, tr)
	rp.analytic(cases, min(passes, replayPasses))
	rp.report(rep)
	rep.spans = tr.snapshot()
	rep.Paths = blockingPaths(tr.snapshot(), tres.outs, rp)
	return nil
}

// measureAnalytic runs the untraced passes over HTTP, records the
// end-to-end metrics and returns the geometric-mean op latency for the
// traced run to compare with.
func measureAnalytic(e *env, cases []eqCase, passes int, d *dataset, rep *report) float64 {
	c := newClient(e.url, 1, nil)
	defer c.close()
	res := runAnalyticPasses(c.do, cases, passes, d, rep)
	rep.Attempted, rep.Failed = res.attempts, res.failed
	for _, f := range figures {
		rep.set("eq_"+f+"_ms", "ms", median(res.figMS[f]), passes)
	}
	rep.set("algo_cold_ms", "ms", median(res.coldMS), passes)
	rep.set("algo_warm_ms", "ms", median(res.warmMS), passes)
	setReadMetrics(rep, res.readMS)
	setOpMetrics(rep, res.outs, len(analyticOps(cases, 0)))
	rep.set("ops_per_s", "1/s", float64(res.opsDone)/res.wall.Seconds(), res.opsDone)
	return geomean(res.outs)
}

// tracedWrap returns the handler wrapper for the traced run, or nil.
func tracedWrap(tr *tracer) func(http.Handler) http.Handler {
	if tr == nil {
		return nil
	}
	return func(h http.Handler) http.Handler { return traceHandler(tr, h) }
}

// setOpMetrics reports latency figures over every op of a run (a failed
// op counts at its deadline) and drops the response bodies, which the
// checks have consumed, so they do not count as heap.
//
// op_geomean_ms and op_p90_ms are taken per window of `window`
// consecutive ops (an analytic pass, or a slice of the stream) and the
// median over windows is reported, so a burst of noise from the host or
// one checkpoint stall moves a window, not the figure. The geometric
// mean weighs a 1 ms and a 1 s query alike, so a suite of fixed queries
// of very different cost does not hinge on whichever sits at the median.
// op_p99_ms, over the whole run, stays in the report: on a shared
// two-core host it moved by a quarter or more between identical runs,
// too much to bound.
func setOpMetrics(rep *report, outs []outcome, window int) {
	lat := make([]float64, len(outs))
	for i := range outs {
		lat[i] = ms(outs[i].lat)
		outs[i].body = nil
	}
	var geo, p90 []float64
	for lo := 0; lo < len(lat); lo += window {
		hi := min(lo+window, len(lat))
		if hi-lo < window && len(geo) > 0 {
			break // a short tail window would weigh as much as a full one
		}
		var logSum float64
		for _, x := range lat[lo:hi] {
			logSum += math.Log(max(x, 1e-6))
		}
		geo = append(geo, math.Exp(logSum/float64(hi-lo)))
		p90 = append(p90, quantile(lat[lo:hi], 0.90))
	}
	rep.set("op_p50_ms", "ms", quantile(lat, 0.5), len(lat))
	rep.set("op_geomean_ms", "ms", median(geo), len(lat))
	rep.set("op_p90_ms", "ms", median(p90), len(lat))
	rep.set("op_p99_ms", "ms", quantile(lat, 0.99), len(lat))
}

// setReadMetrics reports the read-latency median and tail.
func setReadMetrics(rep *report, lat []float64) {
	rep.set("read_p50_ms", "ms", quantile(lat, 0.5), len(lat))
	rep.set("read_p99_ms", "ms", quantile(lat, 0.99), len(lat))
}

// overheadPct compares the geometric-mean op latency of the traced run
// with the untraced run's, in percent.
func overheadPct(untraced, traced float64) float64 {
	return 100 * (traced - untraced) / untraced
}

func geomean(outs []outcome) float64 {
	var s float64
	for _, o := range outs {
		s += math.Log(max(ms(o.lat), 1e-6))
	}
	return math.Exp(s / float64(max(1, len(outs))))
}

func ratio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}
