package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

func smokeOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 7, seconds: 1, trace: trace, smoke: true,
		outDir: t.TempDir(), specDir: filepath.Join("..", "specs")}
}

// TestSmoke runs every workload at tiny sizes, untraced and traced, and
// checks the printed result: correct, every declared metric present
// with its unit, provenance first.
func TestSmoke(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			name := w
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				o := smokeOptions(t, w, trace)
				r, err := run(o)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				emit(&buf, o, r)
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				if !strings.HasPrefix(lines[0], "provenance ") || !strings.Contains(lines[0], `"seed":7`) {
					t.Errorf("first line is not the provenance: %s", lines[0])
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d; notes %v", res.Correct, res.Attempted, res.Failed, r.notes)
				}
				want := r.metricSet()
				if len(res.Metrics) != len(want) {
					t.Errorf("got %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case v.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, want %q", m.Name, v.Unit, m.Unit)
					case !trace && v.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, v.Value)
					}
				}
				if w == "serve_mix" && trace && r.samples["serve.gen_late_ms"] == 0 {
					t.Error("the open-loop generator reported no lateness")
				}
			})
		}
	}
}

// TestGateTripsOnPerturbedReference shifts one reference by one ulp and
// expects every workload to report failures and an incorrect run.
func TestGateTripsOnPerturbedReference(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			o := smokeOptions(t, w, false)
			o.perturb = "knap"
			r, err := run(o)
			if err != nil {
				t.Fatal(err)
			}
			if r.correct() || r.failed == 0 {
				t.Errorf("perturbed knap reference passed: attempted=%d failed=%d", r.attempted, r.failed)
			}
			if r.failed == r.attempted {
				t.Errorf("all %d checks failed; only knap's should", r.attempted)
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the workloads and
// metrics this program declares.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []Metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("workloads %s, program has %s", got, want)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, program has %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if (Metric{m.Name, m.Unit, m.Better}) != endToEnd[i] || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, endToEnd[i])
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, program has %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, perLayer[i])
		}
	}
}

// TestLayerMap checks that README.md's per-layer table names every
// per-layer metric, each on a row that names a workload.
func TestLayerMap(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(raw), "| layer metrics | should move | on |\n")
	if !ok {
		t.Fatal("README.md has no per-layer table")
	}
	table, _, _ = strings.Cut(table, "\n\n")
	code := regexp.MustCompile("`([^`]+)`")
	mapped := map[string]bool{}
	for _, row := range strings.Split(table, "\n")[1:] {
		cols := strings.Split(row, " | ")
		if len(cols) != 3 {
			t.Fatalf("row %q does not have three columns", row)
		}
		if !strings.Contains(cols[2], "`paper_") && !strings.Contains(cols[2], "`serve_mix`") && !strings.Contains(cols[2], "`generated`") {
			t.Errorf("row %q names no workload", row)
		}
		for _, m := range code.FindAllStringSubmatch(cols[0], -1) {
			mapped[m[1]] = true
		}
	}
	for _, m := range perLayer {
		base := m.Name
		for _, p := range solveProblems {
			base = strings.TrimSuffix(base, "."+p)
		}
		if !mapped[base] {
			t.Errorf("per-layer metric %s is not in README.md's table", m.Name)
		}
	}
}
