package bench

import (
	"context"
	"testing"
)

// TestParallelDifferential is the acceptance check: the whole paper
// query suite (EQ1–EQ12, both schemes) must return byte-identical
// results under the morsel-driven executor and the serial one.
func TestParallelDifferential(t *testing.T) {
	env := sharedEnv(t)
	if err := ParallelDifferential(context.Background(), env, 8); err != nil {
		t.Fatal(err)
	}
}

// TestParallelBenchSmoke runs the serial-vs-parallel harness once at
// test scale and sanity-checks the report shape.
func TestParallelBenchSmoke(t *testing.T) {
	env := sharedEnv(t)
	rep, err := ParallelBench(context.Background(), env, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Queries) != len(parallelBenchQueries) {
		t.Fatalf("report has %d queries, want %d", len(rep.Queries), len(parallelBenchQueries))
	}
	for _, qr := range rep.Queries {
		if qr.BatchMS < 0 || qr.ParallelMS < 0 {
			t.Errorf("%s: negative timing %+v", qr.Name, qr)
		}
	}
	if rep.BulkLoad.Quads == 0 {
		t.Error("bulk load benchmark saw zero quads")
	}
	if rep.BulkLoad.Speedup <= 0 {
		t.Errorf("bulk load speedup = %v", rep.BulkLoad.Speedup)
	}
}
