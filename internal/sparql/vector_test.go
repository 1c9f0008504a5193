package sparql

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// vecEngine returns an engine on the batch executor, serial.
func vecEngine(st *store.Store) *Engine {
	e := NewEngine(st)
	e.Parallelism = 1
	return e
}

// storeQuads lists every quad of the store, the reference's input.
func storeQuads(st *store.Store) []rdf.Quad { return st.Quads(store.AnyPattern()) }

// referenceAnswer evaluates q with the reference evaluator, ignoring
// its LIMIT and OFFSET, and returns the canonical (sorted) rows.
func referenceAnswer(t *testing.T, quads []rdf.Quad, q string) []string {
	t.Helper()
	parsed, err := Parse(testPrologue + q)
	if err != nil {
		t.Fatal(err)
	}
	sel := *parsed.Select
	sel.Limit, sel.Offset = -1, 0
	_, rows, err := (&refEval{quads: quads}).Select(&sel)
	if err != nil {
		t.Fatalf("reference: %v\n%s", err, q)
	}
	return refCanon(rows, false)
}

// checkSubAnswer checks that got is the reference's whole answer, or —
// for a LIMIT/OFFSET window without a total order — a sub-multiset of
// it of the right size.
func checkSubAnswer(t *testing.T, q string, got *Results, want []string, window int) {
	t.Helper()
	rows := refCanon(got.Rows, false)
	if window < 0 {
		if strings.Join(rows, "\n") != strings.Join(want, "\n") {
			t.Fatalf("engine (%d rows) differs from the reference (%d rows) for:\n%s", len(rows), len(want), q)
		}
		return
	}
	if n := min(window, len(want)); len(rows) != n {
		t.Fatalf("got %d rows, want %d, for:\n%s", len(rows), n, q)
	}
	avail := map[string]int{}
	for _, r := range want {
		avail[r]++
	}
	for _, r := range rows {
		if avail[r] == 0 {
			t.Fatalf("row %q is not in the reference answer of:\n%s", r, q)
		}
		avail[r]--
	}
}

// vectorDiffQueries covers the batch tail (BGP + trailing filters,
// grouping, LIMIT/OFFSET, DISTINCT, ORDER BY) and BGPs reached through
// row operators (UNION, OPTIONAL, property paths, VALUES feeding a
// BGP). window is the row cap of an unordered LIMIT, -1 for none.
var vectorDiffQueries = []struct {
	q      string
	window int
}{
	{`SELECT ?a ?b WHERE { ?a rel:follows ?b }`, -1},
	{`SELECT ?a ?c WHERE { ?a rel:follows ?b . ?b rel:follows ?c } LIMIT 2000`, 2000},
	{`SELECT (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b . ?b rel:follows ?c }`, -1},
	{`SELECT (COUNT(*) AS ?t) WHERE { ?a rel:follows ?b . ?b rel:follows ?c . ?c rel:follows ?a }`, -1},
	{`SELECT ?a ?b WHERE { ?a rel:follows ?b . FILTER(?a != ?b) }`, -1},
	{`SELECT ?a ?b WHERE { ?a rel:follows ?b . FILTER(?a = ?b) }`, -1},
	{`SELECT DISTINCT ?a WHERE { ?a rel:follows ?b }`, -1},
	{`SELECT (MIN(?b) AS ?lo) (MAX(?b) AS ?hi) (COUNT(?b) AS ?n) WHERE { ?a rel:follows ?b }`, -1},
	{`SELECT (SUM(?n) AS ?s) WHERE { { SELECT ?a (COUNT(?b) AS ?n) WHERE { ?a rel:follows ?b } GROUP BY ?a } }`, -1},
	{`SELECT ?a ?b WHERE { { ?a rel:follows ?b } UNION { ?b rel:follows ?a } } LIMIT 500`, 500},
	{`SELECT ?a ?c WHERE { ?a rel:follows ?b OPTIONAL { ?b rel:follows ?c } } LIMIT 500`, 500},
	{`SELECT ?y WHERE { <http://pg/v0> rel:follows+ ?y } LIMIT 200`, 200},
	{`SELECT ?a ?b WHERE { VALUES ?a { <http://pg/v1> <http://pg/v2> <http://pg/v7> } ?a rel:follows ?b }`, -1},
	{`SELECT ?a WHERE { ?a rel:follows ?a }`, -1},
}

// TestVectorizedMatchesReference: every query must give the reference
// evaluator's answer on the serial batch executor, and the parallel
// executor must be byte-identical to the serial one.
func TestVectorizedMatchesReference(t *testing.T) {
	st := egoNetStore(t, 900, 5)
	quads := storeQuads(st)
	vec := vecEngine(st)
	vec.HashJoinThreshold = 16
	par := NewEngine(st)
	par.Parallelism = 8
	par.HashJoinThreshold = 16
	for _, c := range vectorDiffQueries {
		got, err := vec.Query("", testPrologue+c.q)
		if err != nil {
			t.Fatalf("serial: %v\n%s", err, c.q)
		}
		checkSubAnswer(t, c.q, got, referenceAnswer(t, quads, c.q), c.window)
		pgot, err := par.Query("", testPrologue+c.q)
		if err != nil {
			t.Fatalf("parallel: %v\n%s", err, c.q)
		}
		if pgot.String() != got.String() {
			t.Errorf("parallel result differs from serial for:\n%s", c.q)
		}
	}
	if w := par.ParallelStats().ActiveWorkers; w != 0 {
		t.Errorf("leaked workers: %d", w)
	}
	if g := st.OpenCursors(); g != 0 {
		t.Errorf("leaked cursors: %d", g)
	}
}

// TestVectorizedEmptyBatches drives filters that reject everything (the
// whole stream, and every row of some batches but not others): the
// selection vector must compact to empty without emitting, and the
// result must match the reference.
func TestVectorizedEmptyBatches(t *testing.T) {
	st := egoNetStore(t, 600, 5)
	quads := storeQuads(st)
	vec := vecEngine(st)
	for _, q := range []string{
		`SELECT ?a ?b WHERE { ?a rel:follows ?b . FILTER(false) }`,
		`SELECT (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b . FILTER(false) }`,
		// A sparse survivor set: most batches compact to empty.
		`SELECT ?a WHERE { ?a rel:follows ?b . FILTER(?a = <http://pg/v7>) }`,
	} {
		got, err := vec.Query("", testPrologue+q)
		if err != nil {
			t.Fatalf("%v\n%s", err, q)
		}
		checkSubAnswer(t, q, got, referenceAnswer(t, quads, q), -1)
	}
}

// TestVectorizedLimitOffsetBatchBoundary sweeps LIMIT and OFFSET across
// the batch capacity (one row under, exactly at, one over, multiple
// batches) so off-by-one errors at batch boundaries cannot hide: each
// window must be exactly that slice of the unlimited result, which
// itself must be the reference's answer.
func TestVectorizedLimitOffsetBatchBoundary(t *testing.T) {
	st := egoNetStore(t, 1200, 4) // 4800 result rows for the single pattern
	vec := vecEngine(st)
	const all = `SELECT ?a ?b WHERE { ?a rel:follows ?b }`
	full, err := vec.Query("", testPrologue+all)
	if err != nil {
		t.Fatal(err)
	}
	checkSubAnswer(t, all, full, referenceAnswer(t, storeQuads(st), all), -1)
	for _, limit := range []int{1, vecRampStart, vecRampStart + 1, batchRows - 1, batchRows, batchRows + 1, 2*batchRows + 5} {
		for _, offset := range []int{0, 1, batchRows - 1, batchRows, batchRows + 1} {
			q := fmt.Sprintf(`%s OFFSET %d LIMIT %d`, all, offset, limit)
			got, err := vec.Query("", testPrologue+q)
			if err != nil {
				t.Fatalf("%v\n%s", err, q)
			}
			want := &Results{Vars: full.Vars, Rows: full.Rows[min(offset, full.Len()):min(offset+limit, full.Len())]}
			if got.String() != want.String() {
				t.Fatalf("limit=%d offset=%d: window differs from the unlimited result's slice", limit, offset)
			}
			if got.Len() != limit && offset+limit <= 4800 {
				t.Fatalf("limit=%d offset=%d: got %d rows", limit, offset, got.Len())
			}
		}
	}
}

// TestVectorizedDistinctAcrossBatches: duplicates of the same ?a are
// spread thousands of rows apart (different batches); DISTINCT must
// still dedupe across batch boundaries.
func TestVectorizedDistinctAcrossBatches(t *testing.T) {
	st := egoNetStore(t, 1500, 4)
	q := `SELECT DISTINCT ?a WHERE { ?a rel:follows ?b . ?b rel:follows ?c }`
	got, err := vecEngine(st).Query("", testPrologue+q)
	if err != nil {
		t.Fatal(err)
	}
	checkSubAnswer(t, q, got, referenceAnswer(t, storeQuads(st), q), -1)
}

// TestVectorizedBudgetExhaustionMidBatch exhausts MaxBindings midway
// through a multi-batch join: the query must surface ErrBudgetExceeded
// (the adaptive batch ramp keeps the scan-ahead well under the
// overshoot a whole batch would cause).
func TestVectorizedBudgetExhaustionMidBatch(t *testing.T) {
	st := egoNetStore(t, 800, 5)
	e := vecEngine(st)
	e.Limits = Budget{MaxBindings: 3000}
	_, err := e.Query("", testPrologue+`SELECT ?a ?c WHERE { ?a rel:follows ?b . ?b rel:follows ?c }`)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	// A tight budget must still let a first-rows query through: the
	// ramp bounds scan-ahead below the budget.
	e = vecEngine(st)
	e.Limits = Budget{MaxBindings: 500}
	res, err := e.Query("", testPrologue+`SELECT ?a ?b WHERE { ?a rel:follows ?b } LIMIT 3`)
	if err != nil || res.Len() != 3 {
		t.Fatalf("LIMIT 3 under budget: rows=%v err=%v", res.Len(), err)
	}
}

// TestVectorizedCancellationBetweenBatches cancels the context before
// execution: the batch executor's per-batch poll must notice and
// surface ErrCanceled without leaking workers or cursors.
func TestVectorizedCancellationBetweenBatches(t *testing.T) {
	st := egoNetStore(t, 800, 5)
	for _, parallelism := range []int{1, 8} {
		e := NewEngine(st)
		e.Parallelism = parallelism
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := e.QueryContext(ctx, "", testPrologue+`SELECT ?a ?c WHERE { ?a rel:follows ?b . ?b rel:follows ?c }`)
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("parallelism=%d: err = %v, want ErrCanceled", parallelism, err)
		}
		if w := e.ParallelStats().ActiveWorkers; w != 0 {
			t.Errorf("parallelism=%d: leaked workers: %d", parallelism, w)
		}
	}
	if g := st.OpenCursors(); g != 0 {
		t.Errorf("leaked cursors: %d", g)
	}
}

// TestOrderInsensitive pins the merge-skip rule (DESIGN.md §15): only a
// single implicit group of order-insensitive folds may skip the
// order-preserving merge.
func TestOrderInsensitive(t *testing.T) {
	e := NewEngine(store.New())
	cases := []struct {
		q    string
		want bool
	}{
		{`SELECT (COUNT(*) AS ?n) WHERE { ?a ?p ?b }`, true},
		{`SELECT (COUNT(DISTINCT ?a) AS ?n) WHERE { ?a ?p ?b }`, true},
		{`SELECT (MIN(?a) AS ?lo) (MAX(?a) AS ?hi) WHERE { ?a ?p ?b }`, true},
		{`SELECT (SUM(?a) AS ?s) WHERE { ?a ?p ?b }`, false},
		{`SELECT (AVG(?a) AS ?s) WHERE { ?a ?p ?b }`, false},
		{`SELECT (SAMPLE(?a) AS ?s) WHERE { ?a ?p ?b }`, false},
		{`SELECT (GROUP_CONCAT(?a) AS ?s) WHERE { ?a ?p ?b }`, false},
		{`SELECT ?a (COUNT(?b) AS ?n) WHERE { ?a ?p ?b } GROUP BY ?a`, false},
		{`SELECT ?a WHERE { ?a ?p ?b }`, false},
		{`SELECT ?a WHERE { ?a ?p ?b } ORDER BY ?a`, false},
	}
	for _, c := range cases {
		cp, err := e.compileSelectText(testPrologue + c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		if got := orderInsensitive(cp); got != c.want {
			t.Errorf("orderInsensitive(%s) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestVectorizedUnorderedParallelCount: the unordered fan-in (merge
// skipped) must still produce the exact aggregate of the serial path —
// same count, same min/max.
func TestVectorizedUnorderedParallelCount(t *testing.T) {
	st := egoNetStore(t, 900, 5)
	serial := vecEngine(st)
	par := NewEngine(st)
	par.Parallelism = 8
	par.HashJoinThreshold = 16
	for _, q := range []string{
		`SELECT (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b . ?b rel:follows ?c }`,
		`SELECT (MIN(?c) AS ?lo) (MAX(?c) AS ?hi) (COUNT(?c) AS ?n) WHERE { ?a rel:follows ?b . ?b rel:follows ?c }`,
	} {
		want, err := serial.Query("", testPrologue+q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := par.Query("", testPrologue+q)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("unordered parallel aggregate differs for:\n%s\nserial:\n%s\nparallel:\n%s",
				q, want.String(), got.String())
		}
	}
	if w := par.ParallelStats().ActiveWorkers; w != 0 {
		t.Errorf("leaked workers: %d", w)
	}
}

// TestVectorizedAsk: ASK through the batch tail — found, not-found, and
// early stop under a tight budget.
func TestVectorizedAsk(t *testing.T) {
	st := egoNetStore(t, 300, 5)
	e := NewEngine(st)
	e.Limits = Budget{MaxBindings: 500}
	if ok, err := e.Ask("", testPrologue+`ASK { ?a rel:follows ?b }`); err != nil || !ok {
		t.Fatalf("Ask = %v, %v, want true", ok, err)
	}
	if ok, err := e.Ask("", testPrologue+`ASK { ?a key:name ?b }`); err != nil || ok {
		t.Fatalf("Ask = %v, %v, want false", ok, err)
	}
}
