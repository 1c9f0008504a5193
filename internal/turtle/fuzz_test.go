package turtle

import (
	"bytes"
	"sort"
	"testing"

	"repro/internal/rdf"
)

// FuzzParse drives the Turtle parser with arbitrary input. Properties:
//
//  1. the parser never panics;
//  2. any accepted document serializes through the Turtle writer and
//     re-parses to the same triple SET (the writer regroups subjects
//     and predicate lists, so order may change but content must not).
func FuzzParse(f *testing.F) {
	seeds := []string{
		"<http://a> <http://p> <http://b> .\n",
		"@prefix ex: <http://example.org/> .\nex:a ex:p ex:b , ex:c ; ex:q \"v\" .\n",
		"PREFIX ex: <http://example.org/>\nex:a ex:p 1, 2.5, -3e2 .\n",
		"@base <http://example.org/> .\n<a> <p> <b> .\n",
		"ex:a a ex:Class .\n@prefix ex: <http://x/> .\n",
		"_:b0 <http://p> [ <http://q> \"nested\" ] .\n",
		"<http://a> <http://p> \"\"\"long\nliteral\"\"\" .\n",
		"<http://a> <http://p> 'single' .\n",
		"<http://a> <http://p> true, false .\n",
		"@prefix : <http://x/> .\n:a :p ( :b :c ) .\n",
		"@prefix ex: <http://x/> .\nex:a ex:p \"\\u00e9\" .\n",
		"<a> <p>", // truncated
		"@prefix", // truncated directive
		"\"\"\"",  // unterminated long literal
	}
	for _, s := range seeds {
		f.Add(s)
	}
	for _, s := range regressionInputs {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		triples, err := ParseString(data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, triples, nil); err != nil {
			t.Fatalf("writer rejected parser output: %v\ninput: %q", err, data)
		}
		again, err := ParseString(buf.String())
		if err != nil {
			t.Fatalf("round-trip re-parse failed: %v\ninput: %q\nserialized: %q", err, data, buf.String())
		}
		if !sameTripleSet(triples, again) {
			t.Fatalf("round-trip triple set differs\ninput: %q\nserialized: %q\nfirst: %v\nsecond: %v",
				data, buf.String(), triples, again)
		}
	})
}

// sameTripleSet compares triples as multisets, ignoring order.
func sameTripleSet(a, b []rdf.Triple) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(t rdf.Triple) string { return t.S.String() + "\x00" + t.P.String() + "\x00" + t.O.String() }
	ka := make([]string, len(a))
	kb := make([]string, len(b))
	for i := range a {
		ka[i] = key(a[i])
		kb[i] = key(b[i])
	}
	sort.Strings(ka)
	sort.Strings(kb)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}
