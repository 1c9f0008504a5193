// Command perfbench is the repository's benchmark. It generates a
// seeded Twitter-shaped property graph, loads it behind the same
// httpapi.Server that `pgrdf serve` mounts on a loopback listener,
// drives one workload over HTTP, checks every answer, and prints each
// metric by name and unit. The last line of standard output is a JSON
// summary: the end-to-end metrics, or with --trace 1 the per-layer
// metrics of a traced run. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/twitter"
)

// options are a run's inputs: the command-line flags, plus the dataset
// scale and set-up count, which the run fixes per workload (tests set
// smaller ones). The seed drives both the dataset and the operation
// stream.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	scale    float64 // 0 = the workload's scale (workloadScale)
	setups   int     // 0 = setupsPerRun
	out      string
}

// setupsPerRun is how many times an untraced run sets up; setup_s is
// the median.
const setupsPerRun = 3

// conns is the connection budget of the open loop: one per core.
func conns() int { return runtime.NumCPU() }

func (o options) twitterConfig() twitter.Config {
	cfg := twitter.PaperConfig().Scale(o.scale)
	cfg.Seed = o.seed
	return cfg
}

// setupCount is how many times the run sets up. The traced run reports
// per-layer set-up spans of one set-up.
func (o options) setupCount() int {
	if o.trace {
		return 1
	}
	return o.setups
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options, *report) error{
	"analytic":      runAnalytic,
	"serve-mixed":   runServeMixed,
	"write-durable": runWriteDurable,
}

// workloadScale is each workload's dataset scale. serve-mixed
// runs at the scale its sizing was taken at, where its heavy joins are
// long enough to meet concurrent updates.
var workloadScale = map[string]float64{
	"analytic":      defaultScale,
	"serve-mixed":   0.05,
	"write-durable": defaultScale,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: analytic, serve-mixed or write-durable")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the dataset and the operation stream")
	flag.IntVar(&o.seconds, "seconds", 10, "nominal measured seconds; sets the fixed op count of the workload")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for reports and goroutine dumps")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

func run(o options) error {
	rep, sum, err := execute(o)
	if err != nil {
		return err
	}
	path, err := rep.write(o.out)
	if err != nil {
		return fmt.Errorf("writing report: %w", err)
	}
	rep.printHuman(os.Stdout)
	fmt.Printf("report: %s\n", path)
	b, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !sum.Correct {
		os.Exit(1)
	}
	return nil
}

// execute runs one workload and returns its full report and the
// summary of the metrics the contract names.
func execute(o options) (*report, result, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		return nil, result{}, fmt.Errorf("unknown workload %q (want analytic, serve-mixed or write-durable)", o.workload)
	}
	if o.scale == 0 {
		o.scale = workloadScale[o.workload]
	}
	if o.setups == 0 {
		o.setups = setupsPerRun
	}
	if o.seconds < 1 {
		return nil, result{}, fmt.Errorf("--seconds must be positive")
	}
	rep := newReport(newHeader(o))
	if err := fn(o, rep); err != nil {
		return nil, result{}, err
	}
	names := endToEnd
	if o.trace {
		names = perLayer
	}
	return rep, rep.summary(names, o.trace), nil
}
