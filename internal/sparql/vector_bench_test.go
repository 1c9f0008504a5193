package sparql

import (
	"testing"

	"repro/internal/store"
)

// Microbenchmark kernels for the batch executor, serial. Run via
// `make bench-micro`.
//
// The first four are the hot loops of a BGP that is a plan's batch
// tail: raw pattern scan, hash-table probe, index nested loop and
// filter evaluation. The last three re-apply a BGP once per outer row —
// the shapes where the row operators (OPTIONAL, UNION) reach inner
// BGPs through bgpOp.apply — and guard what each application costs:
// executor reuse, plan rebuilds, buffer allocation.

// benchStore is built once and shared across kernels: a random
// follows-graph big enough that scans span many batches.
var benchStore *store.Store

func kernelStore(b *testing.B) *store.Store {
	if benchStore == nil {
		benchStore = egoNetStore(b, 2000, 8) // 16k quads
	}
	return benchStore
}

func runKernel(b *testing.B, q string, tune func(*Engine)) {
	e := NewEngine(kernelStore(b))
	e.Parallelism = 1
	if tune != nil {
		tune(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query("", testPrologue+q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanKernel: single-pattern scan, the tightest loop — every
// quad flows through the visibility check, bind and emit.
func BenchmarkScanKernel(b *testing.B) {
	runKernel(b, `SELECT (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b }`, nil)
}

// BenchmarkHashProbeKernel: two-hop join with the hash build forced on
// early, so the inner loop is hash probes rather than index scans.
func BenchmarkHashProbeKernel(b *testing.B) {
	runKernel(b, `SELECT (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b . ?b rel:follows ?c }`,
		func(e *Engine) { e.HashJoinThreshold = 16 })
}

// BenchmarkNestedLoopKernel: the same two-hop join with hash joins
// disabled — measures the batched bound-pattern rescan path.
func BenchmarkNestedLoopKernel(b *testing.B) {
	runKernel(b, `SELECT (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b . ?b rel:follows ?c }`,
		func(e *Engine) { e.DisableHashJoin = true })
}

// BenchmarkFilterKernel: scan plus a cheap predicate — measures the
// selection-vector compaction.
func BenchmarkFilterKernel(b *testing.B) {
	runKernel(b, `SELECT (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b . FILTER(?a != ?b) }`, nil)
}

// BenchmarkOptionalPerRowKernel: an OPTIONAL whose two-pattern inner BGP
// is re-applied for each of the 16k outer rows.
func BenchmarkOptionalPerRowKernel(b *testing.B) {
	runKernel(b, `SELECT (COUNT(?c) AS ?n) WHERE { ?a rel:follows ?b
		OPTIONAL { ?b rel:follows ?c . ?c rel:follows ?a } }`, nil)
}

// BenchmarkUnionBehindBGPKernel: a UNION after a BGP, so both
// single-pattern branches run once per outer row.
func BenchmarkUnionBehindBGPKernel(b *testing.B) {
	runKernel(b, `SELECT (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b
		{ ?b rel:follows ?c } UNION { ?c rel:follows ?b } }`, nil)
}

// BenchmarkPointLookupOptionalKernel: one vertex's neighbours with an
// OPTIONAL second hop — a small query where fixed per-query and
// per-application costs dominate.
func BenchmarkPointLookupOptionalKernel(b *testing.B) {
	runKernel(b, `SELECT ?b ?c WHERE { <http://pg/v7> rel:follows ?b
		OPTIONAL { ?b rel:follows ?c } }`, nil)
}
