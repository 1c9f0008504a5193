package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// counters are the server's /metrics samples (summed over labels) and
// numeric /stats fields at one moment.
type counters struct {
	metrics map[string]float64
	stats   map[string]float64
}

// scrape reads /metrics and /stats. A failed read leaves the map empty,
// which shows as zero deltas rather than aborting the run.
func scrape(c *client) counters {
	out := counters{metrics: map[string]float64{}, stats: map[string]float64{}}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if body, err := c.get(ctx, "/metrics"); err == nil {
		sc := bufio.NewScanner(strings.NewReader(string(body)))
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				continue
			}
			name := line[:sp]
			if i := strings.IndexByte(name, '{'); i >= 0 {
				name = name[:i]
			}
			if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
				out.metrics[name] += v
			}
		}
	}
	if body, err := c.get(ctx, "/stats"); err == nil {
		var m map[string]any
		if json.Unmarshal(body, &m) == nil {
			for k, v := range m {
				if f, ok := v.(float64); ok {
					out.stats[k] = f
				}
			}
		}
	}
	return out
}

func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var sb strings.Builder
	_, err = bufio.NewReader(resp.Body).WriteTo(&sb)
	return []byte(sb.String()), err
}

func (a counters) delta(b counters, name string) float64 { return b.metrics[name] - a.metrics[name] }

// layerSetup reports the set-up spans and the store's size as loaded.
func layerSetup(rep *report, e *env) {
	for _, name := range []string{"twitter.generate", "pgrdf.convert", "store.load", "wal.seed_checkpoint", "repl.bootstrap"} {
		if d, ok := e.phases[name]; ok {
			rep.layer(name+"_s", "s", d.Seconds(), 1)
		}
	}
	rep.layer("store.quads", "count", float64(e.quads), 0)
	rep.layer("store.storage_mb", "MB", e.storageMB, 0)
}

// spanIndex groups a run's spans for the per-layer summaries.
type spanIndex struct {
	spans []span
	self  map[int64]time.Duration
	kind  map[int64]opKind // op ID -> class, for HTTP ops
}

func indexSpans(spans []span, outs []outcome) *spanIndex {
	ix := &spanIndex{spans: spans, self: selfTimes(spans), kind: map[int64]opKind{}}
	for _, o := range outs {
		ix.kind[o.op.id] = o.op.kind
	}
	return ix
}

// values collects, in ms, the durations (self times when self is set)
// of spans with the given name whose op is of one of the kinds.
func (ix *spanIndex) values(name string, self bool, kinds ...opKind) []float64 {
	var out []float64
	for _, s := range ix.spans {
		if s.Name != name {
			continue
		}
		k, ok := ix.kind[s.Op]
		if !ok || !hasKind(kinds, k) {
			continue
		}
		d := s.dur()
		if self {
			d = ix.self[s.ID]
		}
		out = append(out, ms(d))
	}
	return out
}

func hasKind(ks []opKind, k opKind) bool {
	for _, x := range ks {
		if x == k {
			return true
		}
	}
	return false
}

// layerHTTP reports the over-HTTP per-layer figures of the traced run:
// the server span around ServeHTTP and the client's own time for the
// workload's read class, how late sends ran, and counter deltas.
func layerHTTP(rep *report, spans []span, outs []outcome, readKind opKind, before, after counters) {
	ix := indexSpans(spans, outs)
	serve := ix.values("httpapi.serve", false, readKind)
	rep.layer("httpapi.serve_p50_ms", "ms", quantile(serve, 0.5), len(serve))
	rep.layer("httpapi.serve_p99_ms", "ms", quantile(serve, 0.99), len(serve))
	transport := ix.values("client."+readKind.String(), true, readKind)
	rep.layer("client.transport_p50_ms", "ms", quantile(transport, 0.5), len(transport))
	var late []float64
	for _, o := range outs {
		if o.op.kind == readKind && o.err != errNotSent {
			late = append(late, ms(o.late))
		}
	}
	rep.layer("client.late_p99_ms", "ms", quantile(late, 0.99), len(late))
	rep.layer("httpapi.shed_total", "count", before.delta(after, "pgrdf_requests_shed_total"), 0)
	rep.layer("sparql.plan_cache_hit_ratio", "ratio", ratio(before.delta(after, "pgrdf_plan_cache_hits_total"),
		before.delta(after, "pgrdf_plan_cache_misses_total")), 0)
	n := float64(max(1, len(outs)))
	rep.layer("store.range_scans", "1/op", before.delta(after, "pgrdf_index_range_scans_total")/n, len(outs))
	rep.layer("store.full_scans", "1/op", before.delta(after, "pgrdf_index_full_scans_total")/n, len(outs))
}
