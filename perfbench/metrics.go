package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// Metric declares one reported number. BENCHMARK.json at the
// repository root lists the same names, units and directions; the
// package test keeps the two in step.
type Metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// The three operation classes every workload reports. On the solve
// workloads (paper_inproc, paper_tcp2, generated) op1..op3 are the
// bandit2, lcs2 and knap solves; on serve_mix they are the memo, run
// and compile request paths (see opNames).
var opNames = map[string][3]string{
	"paper_inproc": {"bandit2", "lcs2", "knap"},
	"paper_tcp2":   {"bandit2", "lcs2", "knap"},
	"generated":    {"bandit2", "lcs2", "knap"},
	"serve_mix":    {"memo", "run", "compile"},
}

// endToEnd are the metrics of an untraced run. Every workload reports
// every one of them.
var endToEnd = []Metric{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"op1.p50_ms", "ms", "lower"},
	{"op2.p50_ms", "ms", "lower"},
	{"op3.p50_ms", "ms", "lower"},
}

// solveProblems are the three paper-scale problems; per-layer metrics of
// the solve workloads carry their names as a suffix.
var solveProblems = []string{"bandit2", "lcs2", "knap"}

// perLayer are the metrics of a traced run. A layer a workload does not
// pass through reads 0 there (for example tcp.* on paper_inproc).
var perLayer = func() []Metric {
	var ms []Metric
	perProblem := []Metric{
		// Analysis and set-up stages.
		{"tiling.new_s", "s", "lower"},
		{"balance.build_s", "s", "lower"},
		{"engine.prepare_s", "s", "lower"},
		{"engine.init_scan_s", "s", "lower"},
		// One engine run, summed over its workers.
		{"engine.kernel_s", "s", "lower"},
		{"engine.kernel_ns_per_cell", "ns", "lower"},
		{"engine.unpack_s", "s", "lower"},
		{"engine.pack_s", "s", "lower"},
		{"engine.idle_s", "s", "lower"},
		{"engine.send_stall_s", "s", "lower"},
		{"engine.span_gap_s", "s", "lower"},
		{"engine.unaccounted_s", "s", "lower"},
		{"engine.static_tile_share", "ratio", "higher"},
		{"engine.steal_share", "ratio", "lower"},
		{"engine.peak_pending_edges", "count", "lower"},
		{"engine.peak_buffered_elems", "count", "lower"},
		{"engine.alloc_bytes_per_cell", "B", "lower"},
		// The TCP transport (paper_tcp2).
		{"tcp.dial_s", "s", "lower"},
		{"tcp.edges_remote", "count", "lower"},
		{"tcp.wire_bytes_per_edge", "B", "lower"},
		{"tcp.edge_latency_p50_us", "us", "lower"},
		{"tcp.rank_idle_s", "s", "lower"},
		// Generated programs (generated).
		{"codegen.generate_s", "s", "lower"},
		{"gen.build_s", "s", "lower"},
		{"gen.init_s", "s", "lower"},
		{"gen.compute_s", "s", "lower"},
		{"gen.exec_overhead_s", "s", "lower"},
	}
	for _, m := range perProblem {
		for _, p := range solveProblems {
			ms = append(ms, Metric{m.Name + "." + p, m.Unit, m.Better})
		}
	}
	return append(ms,
		Metric{"serve.memo.p99_ms", "ms", "lower"},
		Metric{"serve.run.p95_ms", "ms", "lower"},
		Metric{"serve.compile.p90_ms", "ms", "lower"},
		Metric{"serve.handler_overhead_ms", "ms", "lower"},
		Metric{"serve.canonicalize_us", "us", "lower"},
		Metric{"serve.memo_hit_share", "ratio", "higher"},
		Metric{"serve.compile_hit_share", "ratio", "higher"},
		Metric{"serve.coalesced", "count", "lower"},
		Metric{"serve.shed", "count", "lower"},
		Metric{"serve.gen_late_ms", "ms", "lower"},
		Metric{"serve.compile_ms", "ms", "lower"},
		Metric{"serve.run_ms", "ms", "lower"},
		Metric{"obs.trace_overhead", "ratio", "lower"},
	)
}()

// report accumulates one run's checks, metric values and spans.
type report struct {
	o         options
	attempted int64
	failed    int64
	values    map[string]float64
	samples   map[string]int
	notes     []string
	spans     spanLog
	wall      time.Duration
}

func newReport(o options) *report {
	return &report{o: o, values: map[string]float64{}, samples: map[string]int{}}
}

// metricSet is the list this run prints: end-to-end or per-layer.
func (r *report) metricSet() []Metric {
	if r.o.trace {
		return perLayer
	}
	return endToEnd
}

// set records a metric value with the number of samples behind it.
func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// setMedian records the median of samples.
func (r *report) setMedian(name string, xs []float64, scale float64) {
	r.set(name, median(xs)*scale, len(xs))
}

// setOp records an operation class's median latency (xs in seconds).
func (r *report) setOp(class int, xs []float64) {
	r.setMedian(fmt.Sprintf("op%d.p50_ms", class+1), xs, 1e3)
}

// check counts one checked operation; a false ok is a failure.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if r.failed <= 5 {
			r.notef("FAIL "+format, args...)
		}
	}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return r.attempted > 0 && r.failed == 0 }

// complete fills per-layer metrics the workload's path does not touch
// with 0 and rejects a missing or non-finite end-to-end value.
func (r *report) complete() error {
	for _, m := range r.metricSet() {
		v, ok := r.values[m.Name]
		switch {
		case !ok && r.o.trace:
			r.values[m.Name] = 0
		case !ok:
			return fmt.Errorf("metric %s was not measured", m.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return fmt.Errorf("metric %s is %v", m.Name, v)
		}
	}
	if r.attempted == 0 {
		return fmt.Errorf("no operation was checked")
	}
	return nil
}

// provenance describes where and how the numbers were taken.
func provenance(o options, r *report) map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if bi, ok := debug.ReadBuildInfo(); ok && commit == "" {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	if commit == "" {
		commit = "unknown"
	}
	ops := opNames[o.workload]
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"smoke":      o.smoke,
		"ops":        strings.Join(ops[:], ","),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"wall_s":     r.wall.Seconds(),
	}
}

// median returns the middle of xs (the mean of the two middles for an
// even count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs (0 < q <= 1).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// setTail records the q-percentile of xs (seconds) in ms and notes when
// fewer than ten samples lie beyond it.
func (r *report) setTail(name string, xs []float64, q float64) {
	r.set(name, percentile(xs, q)*1e3, len(xs))
	if beyond := float64(len(xs)) * (1 - q); beyond < 10 && !r.o.smoke {
		r.notef("%s rests on %.0f samples beyond it (want >= 10)", name, beyond)
	}
}

// span is one timed layer boundary recorded by the benchmark itself.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // 0 = root
	Name   string             `json:"name"`
	Start  float64            `json:"start_s"` // seconds from run start
	End    float64            `json:"end_s"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// spanLog keeps spans in memory; writeSpans saves them when the run
// ends.
type spanLog struct {
	origin time.Time
	list   []span
}

// add records a span and returns its id, for children to name as
// their parent.
func (l *spanLog) add(parent int, name string, start, end time.Time, attrs map[string]float64) int {
	if l.origin.IsZero() {
		l.origin = start
	}
	id := len(l.list) + 1
	l.list = append(l.list, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(l.origin).Seconds(), End: end.Sub(l.origin).Seconds(), Attrs: attrs})
	return id
}

// writeSpans saves a traced run's spans as JSON in the output
// directory.
func (r *report) writeSpans(o options) error {
	if !o.trace || len(r.spans.list) == 0 {
		return nil
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	raw, err := json.Marshal(r.spans.list)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	r.notef("spans: %d written to %s", len(r.spans.list), path)
	return nil
}
