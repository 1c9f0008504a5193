package sparql

import (
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

func TestFilterExists(t *testing.T) {
	st := fig1Store(t)
	// Vertices with a name that follow someone.
	res := query(t, st, `SELECT ?x WHERE { ?x key:name ?n FILTER EXISTS { ?x rel:follows ?y } }`)
	if res.Len() != 1 || res.Rows[0][0].Value != "http://pg/v1" {
		t.Fatalf("exists res = %s", res)
	}
}

func TestFilterNotExists(t *testing.T) {
	st := fig1Store(t)
	// Vertices with a name that follow no one.
	res := query(t, st, `SELECT ?x WHERE { ?x key:name ?n FILTER NOT EXISTS { ?x rel:follows ?y } }`)
	if res.Len() != 1 || res.Rows[0][0].Value != "http://pg/v2" {
		t.Fatalf("not-exists res = %s", res)
	}
}

func TestExistsInsideParens(t *testing.T) {
	st := fig1Store(t)
	res := query(t, st, `SELECT ?x WHERE {
		?x key:name ?n
		FILTER (EXISTS { ?x rel:follows ?y } || ?n = "Mira")
	}`)
	if res.Len() != 2 {
		t.Fatalf("rows = %d\n%s", res.Len(), res)
	}
}

func TestExistsWithGraphContext(t *testing.T) {
	st := fig1Store(t)
	// Edges (named graphs) that carry a since KV.
	res := query(t, st, `SELECT ?x ?y WHERE {
		?x rel:follows ?y
		FILTER EXISTS { GRAPH ?g { ?x rel:follows ?y . ?g key:since ?v } }
	}`)
	if res.Len() != 1 {
		t.Fatalf("graph exists rows = %d\n%s", res.Len(), res)
	}
	// Negated: follows edges lacking a firstMetAt KV.
	res = query(t, st, `SELECT ?x ?y WHERE {
		?x rel:knows ?y
		FILTER NOT EXISTS { GRAPH ?g { ?x rel:knows ?y . ?g key:since ?v } }
	}`)
	if res.Len() != 1 {
		t.Fatalf("negated graph exists rows = %d\n%s", res.Len(), res)
	}
}

func TestExistsDoesNotLeakBindings(t *testing.T) {
	st := fig1Store(t)
	// ?y inside EXISTS must not become visible outside.
	res := query(t, st, `SELECT ?x ?y WHERE { ?x key:name ?n FILTER EXISTS { ?x rel:follows ?y } }`)
	if res.Len() != 1 {
		t.Fatalf("rows = %d", res.Len())
	}
	if !res.Rows[0][1].IsZero() {
		t.Errorf("?y leaked out of EXISTS: %v", res.Rows[0][1])
	}
}

func TestNotWithoutExistsIsError(t *testing.T) {
	if _, err := Parse(`SELECT ?x WHERE { ?x ?p ?y FILTER NOT (?x = ?y) }`); err == nil {
		t.Error("NOT without EXISTS accepted")
	}
}

// TestNestedExistsSeesLaterVariables: an EXISTS pattern reads every
// variable of the current solution, including ones only a nested
// filter mentions. The outer FILTER must therefore not be pushed to the
// join depth where its own pattern's variables are bound: there ?z,
// bound by the BGP's second pattern, would still be unbound.
func TestNestedExistsSeesLaterVariables(t *testing.T) {
	a, b := refIRI("a"), refIRI("b")
	v := func(s string) rdf.Term { return refIRI(s) }
	quads := []rdf.Quad{
		{S: v("v1"), P: a, O: v("v1")},
		{S: v("v1"), P: a, O: v("v2")},
		{S: v("v2"), P: a, O: v("v3")},
		{S: v("v3"), P: b, O: v("v2")},
	}
	st := store.New()
	if _, err := st.Load("m", quads); err != nil {
		t.Fatal(err)
	}
	if n := checkReference(t, st, quads, "", refQuery{text: "PREFIX : <" + refNS + ">\n" +
		`SELECT ?x ?z WHERE { ?x :a ?y . ?y :a ?z
			FILTER (EXISTS { ?x :a ?x FILTER (NOT EXISTS { ?z :b :v2 }) }) }`}); n == 0 {
		t.Fatal("the reference answer is empty; the check is vacuous")
	}
}
