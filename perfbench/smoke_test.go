package main

import (
	"encoding/json"
	"os"
	"testing"
)

// A tiny-scale run of every workload, untraced and traced, must pass
// every correctness check and produce every contract metric with its
// unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up and drives every workload")
	}
	for _, w := range []string{"analytic", "write-durable", "serve-mixed"} {
		for _, traced := range []bool{false, true} {
			o := options{workload: w, seed: 3, seconds: 1, trace: traced, scale: 0.005, setups: 2, out: t.TempDir()}
			rep, sum, err := execute(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !sum.Correct {
				t.Fatalf("%s trace=%v: correctness checks failed: %v", w, traced, rep.Problems)
			}
			if sum.Attempted < 1 {
				t.Fatalf("%s trace=%v: nothing attempted", w, traced)
			}
			names := endToEnd
			if traced {
				names = perLayer
			}
			for _, n := range names {
				m, ok := sum.Metrics[n.Name]
				if !ok || m.Unit != n.Unit {
					t.Fatalf("%s trace=%v: metric %s missing or not in %s: %+v", w, traced, n.Name, n.Unit, m)
				}
			}
			if _, err := rep.write(o.out); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// The contract file and the program agree on every metric and unit.
func TestContractMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var c struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	same := func(a, b []metricSpec) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if !same(c.EndToEnd, endToEnd) || !same(c.PerLayer, perLayer) {
		t.Fatal("BENCHMARK.json metrics differ from the program's endToEnd/perLayer lists")
	}
	for _, w := range c.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
}
