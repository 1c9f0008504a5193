package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// metric is one reported figure with its unit and, for timings, the
// number of samples it summarises.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// header identifies the code, host and inputs a report was taken on.
type header struct {
	Commit     string         `json:"commit"`
	GoVersion  string         `json:"go_version"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Scale      float64        `json:"scale"`
	Seconds    int            `json:"seconds"`
	Trace      bool           `json:"trace"`
	Params     map[string]any `json:"params"`
	Time       string         `json:"time"`
}

// blockingPath sets the mean self times of the layers one op class
// passes through next to that class's mean end-to-end time.
type blockingPath struct {
	Class   string             `json:"class"`
	E2EMS   float64            `json:"e2e_mean_ms"`
	Layers  map[string]float64 `json:"layers_mean_ms"`
	SumMS   float64            `json:"sum_ms"`
	Covered float64            `json:"covered_share"`
}

// report is everything one run learned; the last stdout line is its
// summary (see result).
type report struct {
	Header    header            `json:"header"`
	Correct   bool              `json:"correct"`
	Problems  []string          `json:"problems,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Wedged    bool              `json:"wedged"`
	Dump      string            `json:"goroutine_dump,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Layers    map[string]metric `json:"layers,omitempty"`
	Paths     []blockingPath    `json:"blocking_paths,omitempty"`
	SpansFile string            `json:"spans_file,omitempty"`
	// spans are the traced run's spans, written beside the report.
	spans []span
	// mu guards Correct and Problems: checks run on client goroutines.
	mu sync.Mutex
}

func newReport(h header) *report {
	return &report{Header: h, Correct: true, Metrics: map[string]metric{}, Layers: map[string]metric{}}
}

// fail records a correctness problem; any problem fails the run.
func (r *report) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Correct = false
	if len(r.Problems) < 50 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// set records an end-to-end metric; a figure without samples (NaN) is
// left out.
func (r *report) set(name, unit string, v float64, samples int) {
	if !math.IsNaN(v) {
		r.Metrics[name] = metric{Value: v, Unit: unit, Samples: samples}
	}
}

// layer records a per-layer metric, likewise.
func (r *report) layer(name, unit string, v float64, samples int) {
	if !math.IsNaN(v) {
		r.Layers[name] = metric{Value: v, Unit: unit, Samples: samples}
	}
}

// result is the machine-readable summary printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// summary selects the metrics named in the benchmark's contract: the
// end-to-end set for an untraced run, the per-layer set for a traced
// one. A metric the run could not produce fails the run.
func (r *report) summary(names []metricSpec, traced bool) result {
	src := r.Metrics
	if traced {
		src = r.Layers
	}
	out := result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metric{}}
	for _, n := range names {
		m, ok := src[n.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.fail("metric %s was not produced", n.Name)
			out.Correct = false
			continue
		}
		out.Metrics[n.Name] = metric{Value: m.Value, Unit: n.Unit}
	}
	return out
}

// write saves the full report as JSON under dir and returns its path.
func (r *report) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	if len(r.spans) > 0 {
		r.SpansFile = filepath.Join(dir, r.baseName()+".spans.jsonl")
		if err := writeSpans(r.SpansFile, r.spans); err != nil {
			return "", err
		}
	}
	path := filepath.Join(dir, r.baseName()+".json")
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (r *report) baseName() string {
	t := 0
	if r.Header.Trace {
		t = 1
	}
	return fmt.Sprintf("%s-seed%d-trace%d", r.Header.Workload, r.Header.Seed, t)
}

// printHuman writes the readable part of the output: every metric by
// name and unit, then the blocking paths.
func (r *report) printHuman(w io.Writer) {
	h := r.Header
	fmt.Fprintf(w, "perfbench %s seed=%d scale=%g seconds=%d trace=%v commit=%s go=%s nproc=%d gomaxprocs=%d\n",
		h.Workload, h.Seed, h.Scale, h.Seconds, h.Trace, h.Commit, h.GoVersion, h.NumCPU, h.GOMAXPROCS)
	fmt.Fprintf(w, "ops attempted=%d failed=%d correct=%v wedged=%v\n", r.Attempted, r.Failed, r.Correct, r.Wedged)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
	if r.Dump != "" {
		fmt.Fprintf(w, "  goroutine dump: %s\n", r.Dump)
	}
	printMetrics(w, "end-to-end", r.Metrics)
	printMetrics(w, "per-layer", r.Layers)
	for _, p := range r.Paths {
		fmt.Fprintf(w, "blocking path %-10s e2e mean %.3f ms, layer self times sum %.3f ms (%.0f%% covered):",
			p.Class, p.E2EMS, p.SumMS, 100*p.Covered)
		for _, k := range sortedKeys(p.Layers) {
			fmt.Fprintf(w, " %s=%.3f", k, p.Layers[k])
		}
		fmt.Fprintln(w)
	}
}

func printMetrics(w io.Writer, title string, ms map[string]metric) {
	if len(ms) == 0 {
		return
	}
	fmt.Fprintf(w, "%s metrics:\n", title)
	for _, k := range sortedKeys(ms) {
		m := ms[k]
		if m.Samples > 0 {
			fmt.Fprintf(w, "  %-40s %14.4f %-10s (n=%d)\n", k, m.Value, m.Unit, m.Samples)
		} else {
			fmt.Fprintf(w, "  %-40s %14.4f %s\n", k, m.Value, m.Unit)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// commitSHA names the code under test: PERFBENCH_COMMIT when the
// wrapper script could ask git, else the VCS stamp of the build, else
// "unknown" (a source checkout without git metadata).
func commitSHA() string {
	if c := strings.TrimSpace(os.Getenv("PERFBENCH_COMMIT")); c != "" {
		return c
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func newHeader(o options) header {
	return header{
		Commit:     commitSHA(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload:   o.workload,
		Seed:       o.seed,
		Scale:      o.scale,
		Seconds:    o.seconds,
		Trace:      o.trace,
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapMB forces a collection and returns the live heap in MiB.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
