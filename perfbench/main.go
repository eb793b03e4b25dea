// Command perfbench is dpgen's benchmark of record. One invocation runs
// one named workload from a seed, checks every value it produces
// against an independent reference, and prints its metrics: the
// end-to-end metrics with tracing off, or the per-layer metrics of a
// traced run with --trace 1. The last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}; the lines
// before it carry provenance and per-metric sample counts.
//
// Run it from the repository root through the wrapper, which builds it
// into .bench_build/:
//
//	bash perfbench/run.sh --workload paper_inproc --seed 1 --seconds 15 --trace 0
//
// README.md beside this file explains each workload, the metric to
// layer map and the known gaps.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool   // tiny sizes, for the package's own tests
	outDir   string // where generated programs and span files go
	specDir  string // the committed specs serve_mix re-tiles
	// perturb, when set, shifts by one ulp every reference whose name
	// contains it; the package test uses it to show the gate trips.
	perturb string
}

// reference returns the reference value v registered under name,
// perturbed when the options ask for it.
func (o options) reference(name string, v float64) float64 {
	if o.perturb != "" && strings.Contains(name, o.perturb) {
		return math.Nextafter(v, math.Inf(1))
	}
	return v
}

// workloads maps each workload name to its runner. The names are fixed:
// BENCHMARK.json and later changes cite them.
var workloads = map[string]func(o options, r *report) error{
	"paper_inproc": func(o options, r *report) error { return runPaper(o, r, false) },
	"paper_tcp2":   func(o options, r *report) error { return runPaper(o, r, true) },
	"generated":    runGenerated,
	"serve_mix":    runServe,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: paper_inproc, paper_tcp2, generated or serve_mix")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured time per run, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&o.specDir, "specs", "specs", "directory of the committed .dps specs")
	flag.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for generated programs and span files")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	emit(os.Stdout, o, res)
	if !res.correct() {
		os.Exit(1)
	}
}

// run executes one workload and returns its filled report.
func run(o options) (*report, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	r := newReport(o)
	start := time.Now()
	if err := fn(o, r); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	r.wall = time.Since(start)
	if err := r.complete(); err != nil {
		return nil, err
	}
	if err := r.writeSpans(o); err != nil {
		return nil, err
	}
	return r, nil
}

// result is the machine-readable last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the provenance and sample-count lines, then the result
// line.
func emit(f io.Writer, o options, r *report) {
	prov, _ := json.Marshal(provenance(o, r))
	fmt.Fprintf(f, "provenance %s\n", prov)
	for _, m := range r.metricSet() {
		fmt.Fprintf(f, "metric %-40s %14.6g %-6s samples=%d\n", m.Name, r.values[m.Name], m.Unit, r.samples[m.Name])
	}
	for _, line := range r.notes {
		fmt.Fprintf(f, "note %s\n", line)
	}
	out := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range r.metricSet() {
		out.Metrics[m.Name] = metricValue{Value: r.values[m.Name], Unit: m.Unit}
	}
	line, _ := json.Marshal(out)
	fmt.Fprintf(f, "%s\n", line)
}
