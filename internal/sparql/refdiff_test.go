package sparql

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/pg"
	"repro/internal/pgrdf"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/twitter"
)

// The reference differential (DESIGN.md §5, invariant 6): random
// queries over random small stores, and the paper's EQ1–EQ12 over all
// three schemes, must give the reference evaluator's answers under
// every executor configuration.

// refConfig is one executor configuration the differential covers.
type refConfig struct {
	name        string
	parallelism int
	noHash      bool
}

var refConfigs = []refConfig{
	{"serial/hash16", 1, false},
	{"serial/nlj", 1, true},
	{"parallel8/hash16", 8, false},
	{"parallel8/nlj", 8, true},
}

func refEngine(st *store.Store, c refConfig) *Engine {
	e := NewEngine(st)
	e.Parallelism = c.parallelism
	e.HashJoinThreshold = 16
	e.DisableHashJoin = c.noHash
	return e
}

// lowerParallelThresholds lets morsel-parallel scans and frontier
// expansion engage on stores of a few dozen quads, for the rest of the
// test.
func lowerParallelThresholds(t testing.TB) {
	scan, bfs := parallelScanMinRows, parallelBFSMinFrontier
	parallelScanMinRows, parallelBFSMinFrontier = 2, 2
	t.Cleanup(func() { parallelScanMinRows, parallelBFSMinFrontier = scan, bfs })
}

// refCanon renders rows for comparison; sorted unless the order is
// part of the answer.
func refCanon(rows [][]rdf.Term, ordered bool) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = refRowKey(r)
	}
	if !ordered {
		sort.Strings(out)
	}
	return out
}

// checkReference runs one query on every configuration and compares
// each answer with the reference evaluator's over quads. It returns the
// number of answer rows.
func checkReference(t testing.TB, st *store.Store, quads []rdf.Quad, model string, rq refQuery) int {
	t.Helper()
	return checkReferenceWithin(t, st, quads, model, rq, Budget{})
}

// checkReferenceWithin is checkReference that first runs the query
// serially under limits, and skips it (returning -1) when the serial
// run exceeds them: a random query can multiply out far beyond what a
// test should evaluate five times.
func checkReferenceWithin(t testing.TB, st *store.Store, quads []rdf.Quad, model string, rq refQuery, limits Budget) int {
	t.Helper()
	if limits != (Budget{}) {
		e := refEngine(st, refConfigs[0])
		e.Limits = limits
		if _, err := e.Query(model, rq.text); errors.Is(err, ErrBudgetExceeded) {
			return -1
		}
	}
	q, err := Parse(rq.text)
	if err != nil {
		t.Fatalf("generated query does not parse: %v\n%s", err, rq.text)
	}
	vars, rows, err := (&refEval{quads: quads}).Select(q.Select)
	if err != nil {
		t.Fatalf("reference: %v\n%s", err, rq.text)
	}
	want := refCanon(rows, rq.ordered)
	for _, c := range refConfigs {
		e := refEngine(st, c)
		res, err := e.Query(model, rq.text)
		if err != nil {
			t.Fatalf("%s: %v\n%s", c.name, err, rq.text)
		}
		if strings.Join(res.Vars, " ") != strings.Join(vars, " ") {
			t.Fatalf("%s: columns %v, reference %v\n%s", c.name, res.Vars, vars, rq.text)
		}
		if got := refCanon(res.Rows, rq.ordered); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("%s: %d rows differ from the reference's %d (ordered=%v)\n%s\n--- engine ---\n%s--- reference ---\n%s",
				c.name, len(got), len(want), rq.ordered, rq.text, res.String(), (&Results{Vars: vars, Rows: rows}).String())
		}
		if w := e.ParallelStats().ActiveWorkers; w != 0 {
			t.Fatalf("%s: %d leaked workers\n%s", c.name, w, rq.text)
		}
	}
	if n := st.OpenCursors(); n != 0 {
		t.Fatalf("%d leaked cursors\n%s", n, rq.text)
	}
	return len(rows)
}

// refBudget caps one generated query's bindings.
var refBudget = Budget{MaxBindings: 50000}

// runReferenceSeed generates one store from seed and checks n random
// queries against it, counting answered (non-empty) queries in
// feats["answered"] and those skipped for exceeding refBudget in
// feats["skipped"].
func runReferenceSeed(t testing.TB, seed int64, n int, feats map[string]int) {
	rng := rand.New(rand.NewSource(seed))
	quads := refData(rng)
	st := store.New()
	if _, err := st.Load("m", quads); err != nil {
		t.Fatal(err)
	}
	g := &refGen{rng: rng, feats: feats}
	for i := 0; i < n; i++ {
		switch rows := checkReferenceWithin(t, st, quads, "", g.query(), refBudget); {
		case rows < 0:
			feats["skipped"]++
		case rows > 0:
			feats["answered"]++
		}
	}
}

// TestReferenceDifferential checks 600 generated queries (120 stores,
// 5 queries each) under all four executor configurations, and that the
// generator covered every construct the differential claims.
func TestReferenceDifferential(t *testing.T) {
	lowerParallelThresholds(t)
	feats := map[string]int{}
	const stores, perStore = 120, 5
	for seed := int64(1); seed <= stores; seed++ {
		runReferenceSeed(t, seed, perStore, feats)
	}
	if got := feats["bgp"]; got < 500 {
		t.Errorf("only %d patterns generated", got)
	}
	// Empty answers agree too easily: most queries must have some, and
	// only a few may be skipped as too large.
	if got := feats["answered"]; got < stores*perStore/2 {
		t.Errorf("only %d of %d queries have a non-empty answer", got, stores*perStore)
	}
	if got := feats["skipped"]; got > stores*perStore/20 {
		t.Errorf("%d of %d queries skipped as too large", got, stores*perStore)
	}
	for _, f := range []string{"optional", "union", "minus", "filter", "exists", "not exists",
		"graph", "bind", "values", "subselect", "bound", "aggregate", "group by", "having",
		"COUNT", "SUM", "MIN", "MAX", "distinct", "order by", "limit", "offset",
		"path/", "path|", "path^", "path+", "path*", "path?"} {
		if feats[f] < 5 {
			t.Errorf("construct %q generated %d times, want >= 5", f, feats[f])
		}
	}
	t.Logf("constructs generated: %v", feats)
}

// FuzzReferenceDifferential drives the same differential from fuzzed
// seeds: one random store and a few queries per input.
func FuzzReferenceDifferential(f *testing.F) {
	for _, s := range []int64{0, 7, 42, 1 << 40} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		lowerParallelThresholds(t)
		runReferenceSeed(t, seed, 3, map[string]int{})
	})
}

// TestReferenceEvaluatorKnownAnswers pins the oracle itself on a
// hand-checked store, so a reference bug cannot silently agree with an
// engine bug.
func TestReferenceEvaluatorKnownAnswers(t *testing.T) {
	v := func(i int) rdf.Term { return refIRI(fmt.Sprintf("v%d", i)) }
	a, age := refIRI("a"), refIRI("age")
	quads := []rdf.Quad{
		{S: v(1), P: a, O: v(2)},
		{S: v(2), P: a, O: v(3)},
		{S: v(3), P: a, O: v(1)},
		{S: v(3), P: a, O: v(4), G: refIRI("g0")},
		{S: v(1), P: age, O: rdf.NewInteger(3)},
		{S: v(4), P: age, O: rdf.NewInteger(1)},
	}
	cases := []struct {
		q    string
		want string // rows joined by ';', columns by ','; "-" is unbound
	}{
		{`SELECT ?x ?n WHERE { ?x :a ?y OPTIONAL { ?x :age ?n } }`, "v1,3;v2,-;v3,-;v3,-"},
		{`SELECT ?x WHERE { ?x :a ?y MINUS { ?y :age ?n } }`, "v1;v2"},
		{`SELECT ?y WHERE { :v1 :a+ ?y }`, "v1;v2;v3;v4"},
		{`SELECT ?y WHERE { :v4 :a* ?y }`, "v4"},
		{`SELECT ?y WHERE { :v9 :a* ?y }`, "v9"},
		{`SELECT ?x ?g WHERE { GRAPH ?g { ?x :a ?y } }`, "v3,g0"},
		{`SELECT ?x WHERE { ?x :a ?y FILTER NOT EXISTS { ?y :a ?x } }`, "v1;v2;v3;v3"},
		{`SELECT (COUNT(*) AS ?c) (SUM(?n) AS ?s) (MIN(?n) AS ?lo) WHERE { ?x :age ?n }`, "2,4,1"},
		{`SELECT (COUNT(*) AS ?c) (MAX(?n) AS ?hi) WHERE { ?x :age ?n FILTER (?n > 5) }`, "0,-"},
		{`SELECT ?x WHERE { ?x :a ?y } ORDER BY DESC(?x) LIMIT 2 OFFSET 1`, "v3;v2"},
		{`SELECT ?x ?z WHERE { ?x :a/:a ?z FILTER (?x = :v1) }`, "v1,v3"},
		{`SELECT ?m WHERE { ?x :age ?n BIND (?n + 1 AS ?m) }`, "2;4"},
	}
	for _, c := range cases {
		q, err := Parse("PREFIX : <" + refNS + ">\n" + c.q)
		if err != nil {
			t.Fatal(err)
		}
		_, rows, err := (&refEval{quads: quads}).Select(q.Select)
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		var got []string
		for _, r := range rows {
			var cols []string
			for _, term := range r {
				switch {
				case term.IsZero():
					cols = append(cols, "-")
				case term.IsIRI():
					cols = append(cols, strings.TrimPrefix(term.Value, refNS))
				default:
					cols = append(cols, term.Value)
				}
			}
			got = append(got, strings.Join(cols, ","))
		}
		if len(q.Select.OrderBy) == 0 {
			sort.Strings(got)
		}
		if g := strings.Join(got, ";"); g != c.want {
			t.Errorf("%s\n got %s\nwant %s", c.q, g, c.want)
		}
	}
}

// TestPaperQueriesMatchReference runs EQ1–EQ12 on a small generated
// Twitter graph under NG, SP and RF, each against the dataset the
// paper poses it on (Table 4), and compares every executor
// configuration with the reference evaluator over that dataset's quads.
func TestPaperQueriesMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("loads three schemes")
	}
	g := twitter.Generate(twitter.PaperConfig().Scale(0.002))
	tag, start := paperTagAndStart(g)
	vocab := pgrdf.DefaultVocabulary()
	vocab.VertexPrefix = "n"
	for _, scheme := range []pgrdf.Scheme{pgrdf.NG, pgrdf.SP, pgrdf.RF} {
		st, err := pgrdf.NewStore(scheme)
		if err != nil {
			t.Fatal(err)
		}
		conv := &pgrdf.Converter{Scheme: scheme, Vocab: vocab, Opts: pgrdf.DefaultOptions()}
		names, err := pgrdf.LoadPartitioned(st, conv.Convert(g), "pg")
		if err != nil {
			t.Fatal(err)
		}
		queries := PaperQueries()
		qnames := make([]string, 0, len(queries))
		for name := range queries {
			qnames = append(qnames, name)
		}
		sort.Strings(qnames)
		nonEmpty := 0
		for _, name := range qnames {
			text := strings.ReplaceAll(queries[name], "#webseries", tag)
			text = strings.ReplaceAll(text, "http://pg/n6160742", start)
			model := paperModel(names, name)
			quads := datasetQuads(t, st, model)
			q, err := Parse(text)
			if err != nil {
				t.Fatal(err)
			}
			// EQ9/EQ10 order by a group key: a total order.
			ordered := len(q.Select.OrderBy) > 0
			t.Run(scheme.String()+"/"+name, func(t *testing.T) {
				checkReference(t, st, quads, model, refQuery{text: text, ordered: ordered})
			})
			if res, err := refEngine(st, refConfigs[0]).Query(model, text); err == nil && res.Len() > 0 {
				if !(res.Len() == 1 && len(res.Rows[0]) == 1 && res.Rows[0][0].Value == "0") {
					nonEmpty++
				}
			}
		}
		if nonEmpty < len(qnames)/2 {
			t.Errorf("%s: only %d of %d paper queries have answers; the check is vacuous", scheme, nonEmpty, len(qnames))
		}
	}
}

// paperTagAndStart picks the EQ parameters on a generated graph: the
// rarest tag carried by at least three vertices, and the start vertex
// whose number of 5-hop follows paths (EQ11e's count) is closest to
// 10,000 — enough work, but few enough paths for the reference to
// materialize.
func paperTagAndStart(g *pg.Graph) (tag, start string) {
	counts := map[string]int{}
	var ids []pg.ID
	out := map[pg.ID][]pg.ID{}
	g.Vertices(func(v *pg.Vertex) bool {
		ids = append(ids, v.ID)
		for _, val := range v.Values("hasTag") {
			counts[val.Str]++
		}
		for _, e := range g.OutEdges(v.ID) {
			if e.Label == "follows" {
				out[v.ID] = append(out[v.ID], e.Dst)
			}
		}
		return true
	})
	paths := map[pg.ID]int{} // paths of the current length from each vertex
	for _, id := range ids {
		paths[id] = 1
	}
	for hop := 0; hop < 5; hop++ {
		next := map[pg.ID]int{}
		for _, id := range ids {
			for _, dst := range out[id] {
				next[id] += paths[dst]
			}
		}
		paths = next
	}
	bestID, bestDiff := pg.ID(0), 1<<62
	for _, id := range ids {
		if d := max(paths[id]-10000, 10000-paths[id]); paths[id] > 0 && d < bestDiff {
			bestID, bestDiff = id, d
		}
	}
	best := -1
	for t, n := range counts {
		if n >= 3 && (best < 0 || n < best || n == best && t < tag) {
			tag, best = t, n
		}
	}
	vocab := pgrdf.DefaultVocabulary()
	vocab.VertexPrefix = "n"
	return tag, vocab.VertexIRI(bestID).Value
}

// paperModel is the dataset each EQ family is posed against (Table 4).
func paperModel(n pgrdf.ModelNames, name string) string {
	switch {
	case name == "EQ1", name == "EQ2", name == "EQ3", name == "EQ4":
		return n.TopoNodeKV
	case strings.HasPrefix(name, "EQ5"), strings.HasPrefix(name, "EQ6"),
		strings.HasPrefix(name, "EQ7"), strings.HasPrefix(name, "EQ8"):
		return n.TopoEdgeKV
	default:
		return n.Topology
	}
}

// datasetQuads lists the quads of a (virtual) model, one copy per
// member model.
func datasetQuads(t *testing.T, st *store.Store, model string) []rdf.Quad {
	ids, err := st.ResolveDataset(model)
	if err != nil {
		t.Fatal(err)
	}
	var out []rdf.Quad
	for _, id := range ids {
		p := store.AnyPattern()
		p.M = id
		out = append(out, st.Quads(p)...)
	}
	return out
}
