package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dpgen/internal/codegen"
	"dpgen/internal/problems"
)

// genThreads is the -threads flag every generated program runs with.
const genThreads = 2

// genCase is one problem of the generated workload: its spec with
// codegen text, the built program and the measurements.
type genCase struct {
	*solveCase
	dir, bin               string
	generate, build        []float64 // seconds per set-up
	initS, computeS, execS []float64 // seconds per execution, from the program's own report
	maxRSS                 []float64 // MB per execution
}

// genSpecs returns the paper-scale cases with specs that carry codegen
// text. lcs2's builtin codegen text declares 300x280 inputs; the
// declarations are rewritten to the workload's sizes, and the
// generated dpDNA reproduces workload.DNA for the same seeds.
func genSpecs(o options) ([]*genCase, error) {
	var out []*genCase
	for _, c := range paperCases(o) {
		if c.name == "lcs2" {
			sa, sb := lcsSeeds(o.seed)
			seeded := problems.LCS2Seeded(sa)
			sp := *seeded.Spec
			n := c.params[0]
			for _, d := range [][2]string{
				{fmt.Sprintf("var seqA = dpDNA(300, %d)", sa), fmt.Sprintf("var seqA = dpDNA(%d, %d)", n, sa)},
				{fmt.Sprintf("var seqB = dpDNA(280, %d)", sb), fmt.Sprintf("var seqB = dpDNA(%d, %d)", n, sb)},
			} {
				if !strings.Contains(sp.GlobalCode, d[0]) {
					return nil, fmt.Errorf("lcs2 codegen text lacks %q", d[0])
				}
				sp.GlobalCode = strings.Replace(sp.GlobalCode, d[0], d[1], 1)
			}
			// The engine-side problem (kernel and serial reference) stays
			// the one paperCases built on the same strings.
			c.prob = &problems.Problem{Spec: &sp, Kernel: c.prob.Kernel, Serial: c.prob.Serial}
		}
		out = append(out, &genCase{solveCase: c})
	}
	return out, nil
}

// runGenerated emits each problem's standalone program with
// codegen.Generate, builds it offline, and executes it with -threads 2.
func runGenerated(o options, r *report) error {
	cases, err := genSpecs(o)
	if err != nil {
		return err
	}
	var setupSums []float64
	for rep := 0; rep < setupReps(o); rep++ {
		sum := 0.0
		for _, c := range cases {
			s, err := genSetUp(o, r, c)
			if err != nil {
				return err
			}
			sum += s
		}
		setupSums = append(setupSums, sum)
	}
	for _, c := range cases { // warm-up execution
		if err := execGen(c, false); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(o.seed))
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for round := 0; round < 2 || time.Now().Before(deadline); round++ {
		for _, i := range rng.Perm(len(cases)) {
			if err := execGen(cases[i], true); err != nil {
				return err
			}
		}
	}

	peak := 0.0
	for _, c := range cases {
		ref := o.reference(c.name, c.prob.Serial(c.params))
		for _, v := range c.values {
			r.check(math.Float64bits(v) == math.Float64bits(ref), "generated %s%v = %v, serial reference %v", c.name, c.params, v, ref)
		}
		peak = math.Max(peak, median(c.maxRSS))
	}
	if !o.trace {
		r.setMedian("setup_s", setupSums, 1)
		r.set("peak_rss_mb", peak, len(cases[0].maxRSS))
		for i, c := range cases {
			r.setOp(i, c.solves)
			r.notef("generated %s%v: process p50 %.4fs over %d, setup p50 %.4fs", c.name, c.params, median(c.solves), len(c.solves), median(c.setup))
		}
		return nil
	}
	for _, c := range cases {
		p := "." + c.name
		r.setMedian("codegen.generate_s"+p, c.generate, 1)
		r.setMedian("gen.build_s"+p, c.build, 1)
		r.setMedian("gen.init_s"+p, c.initS, 1)
		r.setMedian("gen.compute_s"+p, c.computeS, 1)
		r.setMedian("gen.exec_overhead_s"+p, c.execS, 1)
	}
	return nil
}

// genSetUp generates c's program and builds it, returning the set-up
// seconds.
func genSetUp(o options, r *report, c *genCase) (float64, error) {
	c.dir = filepath.Join(o.outDir, "gen", c.name)
	c.bin = filepath.Join(c.dir, "prog")
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return 0, err
	}
	t0 := time.Now()
	src, err := codegen.Generate(c.prob.Spec, codegen.Options{ParamDefaults: c.params})
	if err != nil {
		return 0, fmt.Errorf("%s: %w", c.name, err)
	}
	t1 := time.Now()
	// A unique trailing comment makes every set-up compile the program
	// afresh instead of reusing an earlier build from the Go cache.
	src = append(src, fmt.Sprintf("\n// perfbench build %d\n", time.Now().UnixNano())...)
	if err := os.WriteFile(filepath.Join(c.dir, "main.go"), src, 0o644); err != nil {
		return 0, err
	}
	if err := os.WriteFile(filepath.Join(c.dir, "go.mod"), []byte("module gen\n\ngo 1.22\n"), 0o644); err != nil {
		return 0, err
	}
	cmd := exec.Command("go", "build", "-o", "prog", ".")
	cmd.Dir = c.dir
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOPROXY=off", "GOFLAGS=-mod=mod", "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("%s: go build: %v\n%s", c.name, err, out)
	}
	t2 := time.Now()
	c.generate = append(c.generate, t1.Sub(t0).Seconds())
	c.build = append(c.build, t2.Sub(t1).Seconds())
	c.setup = append(c.setup, t2.Sub(t0).Seconds())
	if o.trace {
		root := r.spans.add(0, "setup:"+c.name, t0, t2, nil)
		r.spans.add(root, "codegen.Generate", t0, t1, nil)
		r.spans.add(root, "go build", t1, t2, nil)
	}
	return t2.Sub(t0).Seconds(), nil
}

// execGen runs c's program once and records its value and, when
// timed, its process wall time and self-reported phases.
func execGen(c *genCase, timed bool) error {
	args := []string{"-threads", strconv.Itoa(genThreads)}
	for i, name := range c.prob.Spec.Params {
		args = append(args, "-"+name, strconv.FormatInt(c.params[i], 10))
	}
	cmd := exec.Command(c.bin, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("generated %s: %w", c.name, err)
	}
	wall := time.Since(t0).Seconds()
	rep := map[string]float64{}
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			rep[f[0]] = v
		}
	}
	value, ok := rep["value"]
	if !ok {
		return fmt.Errorf("generated %s printed no value:\n%s", c.name, stdout.String())
	}
	c.values = append(c.values, value)
	if !timed {
		return nil
	}
	c.solves = append(c.solves, wall)
	c.initS = append(c.initS, rep["init_seconds"])
	c.computeS = append(c.computeS, rep["total_seconds"]-rep["init_seconds"])
	c.execS = append(c.execS, wall-rep["total_seconds"])
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.maxRSS = append(c.maxRSS, float64(ru.Maxrss)/1024) // Linux reports KB
	}
	return nil
}
