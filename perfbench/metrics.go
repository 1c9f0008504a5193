package main

// defaultScale is the dataset scale: the fraction of the paper's 973
// egos generated.
const defaultScale = 0.02

// eq11eWalks is the EQ11e answer (5-hop follows walks) the start vertex
// is chosen for at the default scale. Over seeds 1–10 the vertices that
// follow about 21 others reach 1.5–2.1·10⁷ walks at the least and
// 2.4–2.8·10⁷ at the lower quartile, so every seed has a candidate near
// it. It sits at the low end so that a pass stays short and a run holds
// many passes.
const eq11eWalks = 2e7

// metricSpec is one metric of the benchmark's contract (BENCHMARK.json).
type metricSpec struct{ Name, Unit string }

// endToEnd are the metrics an untraced run prints in its summary line;
// every workload produces each of them. Op latency (op_geomean_ms and
// the workload metrics) is left out: on the shared host the benchmark
// was built on, it moved by more than any bound the contract allows
// between runs of the same code (README.md).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
}

// perLayer are the metrics a traced run prints in its summary line;
// every workload produces each of them.
var perLayer = []metricSpec{
	{"twitter.generate_s", "s"},
	{"pgrdf.convert_s", "s"},
	{"store.load_s", "s"},
	{"store.quads", "count"},
	{"store.storage_mb", "MB"},
	{"httpapi.serve_p50_ms", "ms"},
	{"httpapi.serve_p99_ms", "ms"},
	{"client.transport_p50_ms", "ms"},
	{"httpapi.serialize_p50_us", "us"},
	{"httpapi.shed_total", "count"},
	{"sparql.parse_p50_us", "us"},
	{"sparql.plan_cache_hit_ratio", "ratio"},
	{"sparql.read_exec_p50_ms", "ms"},
	{"sparql.read_exec_p99_ms", "ms"},
	{"store.range_scans", "1/op"},
	{"store.full_scans", "1/op"},
	{"trace.overhead_pct", "%"},
}

// analyticPassSeconds is the nominal length of one analytic pass at the
// default scale; it converts --seconds into the run's fixed pass count.
const analyticPassSeconds = 2.5

// analyticPasses is the fixed pass count of an analytic run.
func (o options) analyticPasses() int {
	return max(2, int(float64(o.seconds)/analyticPassSeconds+0.5))
}
