package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dpgen/internal/problems"
	"dpgen/internal/serve"
	"dpgen/internal/spec"
)

// The serve_mix open loop: arrivals at serveRate per second (Poisson,
// seeded), split into exact shares of the three request paths (memo,
// run, and the remaining 3% compile), at most serveConns requests in
// flight. The rate keeps the 2-CPU host about a third busy at the
// slower of the two speeds it ran at while the benchmark was tuned (see
// RESULTS.md): at half busy, queueing on the two connections amplified
// the host's own speed swings past the metrics' bounds.
const (
	serveRate  = 170.0
	serveConns = 2
	memoShare  = 0.85
	runShare   = 0.12
	smokeRate  = 60.0
	// compileSpecs are the committed specs/*.dps the compile path
	// re-tiles. bandit2's 4-D analysis (0.15-0.35 s) is left to setup_s
	// on the solve workloads: here it held one of the two connections
	// long enough to make every path's latency depend on when those
	// requests landed.
	compileSpecs = "knap mcm obst"
	classMemo    = 0
	classRun     = 1
	classCompile = 2
)

// query is one request of the schedule.
type query struct {
	class int
	due   time.Duration // from the start of the open loop
	body  []byte
	key   string // what the value is checked against
}

// reply is the outcome of one request.
type reply struct {
	status     int
	sent, done time.Duration // from the start of the open loop
	resp       serve.QueryResponse
}

// problemKey names a builtin query whose reference is problems.Serial.
func problemKey(name string, params []int64) string {
	return fmt.Sprintf("builtin %s %v", name, params)
}

// builtinQuery is a builtin problem at given params (nil: its
// defaults).
type builtinQuery struct {
	problem string
	params  []int64
}

// memoKeys is the key set primed at set-up: cheap builtin queries the
// memo path repeats.
func memoKeys(smoke bool) []builtinQuery {
	var ks []builtinQuery
	n := 10
	if smoke {
		n = 3
	}
	for i := int64(0); i < int64(n); i++ {
		ks = append(ks,
			builtinQuery{"bandit2", []int64{12 + i}},
			builtinQuery{"knap", []int64{20 + i, 60, 2}},
			builtinQuery{"mcm", []int64{15 + i}},
			builtinQuery{"obst", []int64{15 + i}})
	}
	return append(ks, builtinQuery{"lcs2", nil}, builtinQuery{"editdist", nil})
}

// runMenu lists the params the run path cycles through per builtin;
// the seed picks the order, so every run sees nearly the same mix.
func runMenu(name string, smoke bool) [][]int64 {
	var menu [][]int64
	for i := int64(0); i < 13; i++ {
		switch name {
		case "bandit2":
			menu = append(menu, []int64{20 + i})
		case "knap":
			menu = append(menu, []int64{100 + 15*i, 280 - 15*i, 1 + i%4})
		default: // mcm, obst
			menu = append(menu, []int64{12 + i})
		}
	}
	if smoke {
		for _, p := range menu {
			p[0] /= 2
			if name == "knap" {
				p[1] /= 2
			}
		}
	}
	return menu
}

// cycler hands out a menu's entries in seeded order, reshuffling after
// each pass.
type cycler struct {
	menu [][]int64
	perm []int
}

func (c *cycler) next(rng *rand.Rand) []int64 {
	if len(c.perm) == 0 {
		c.perm = rng.Perm(len(c.menu))
	}
	p := c.menu[c.perm[0]]
	c.perm = c.perm[1:]
	return p
}

// compileCase is one committed spec the compile path re-tiles.
type compileCase struct {
	name   string
	text   string
	params []int64
	tile   *regexp.Regexp
	dims   int

	committed string   // the spec's own tile line
	widths    []string // tile lines in seeded order
	next      int
}

var compileParams = map[string][]int64{"knap": {40, 80, 3}, "mcm": {16}, "obst": {16}}

// loadCompileCases reads the committed specs from dir.
func loadCompileCases(dir string) ([]*compileCase, error) {
	var cs []*compileCase
	tileLine := regexp.MustCompile(`(?m)^tile( +\d+)+ *$`)
	for _, name := range strings.Fields(compileSpecs) {
		raw, err := os.ReadFile(filepath.Join(dir, name+".dps"))
		if err != nil {
			return nil, err
		}
		sp, err := spec.Parse(string(raw))
		if err != nil {
			return nil, fmt.Errorf("%s.dps: %w", name, err)
		}
		if !tileLine.Match(raw) {
			return nil, fmt.Errorf("%s.dps has no tile line", name)
		}
		// The committed widths are left out: that hash is the reference
		// query, and the builtin of the same name shares it.
		cs = append(cs, &compileCase{name: name, text: string(raw), params: compileParams[name],
			tile: tileLine, dims: len(sp.Vars), committed: strings.TrimSpace(tileLine.FindString(string(raw)))})
	}
	return cs, nil
}

// The compile path draws each tile width from widthLo..widthLo+widthCount-1.
const widthLo, widthCount = 6, 8

// unusedWidths is how many tile-width vectors in range differ from the
// committed one: the most compile requests c can take in one run.
func (c *compileCase) unusedWidths() int {
	total := 1
	for i := 0; i < c.dims; i++ {
		total *= widthCount
	}
	return total - 1
}

// retile returns the spec text with the next tile widths of a seeded
// order over every width vector in range, never the committed one, so
// each request is a new canonical hash.
func (c *compileCase) retile(rng *rand.Rand) string {
	if c.widths == nil {
		for _, k := range rng.Perm(c.unusedWidths() + 1) {
			ws := make([]string, c.dims)
			for i := range ws {
				ws[i] = strconv.Itoa(widthLo + k%widthCount)
				k /= widthCount
			}
			if line := "tile " + strings.Join(ws, " "); line != c.committed {
				c.widths = append(c.widths, line)
			}
		}
	}
	c.next++
	return c.tile.ReplaceAllString(c.text, c.widths[c.next-1])
}

func compileKey(name string, params []int64) string { return fmt.Sprintf("spec %s %v", name, params) }

// schedule builds the seeded open-loop arrival schedule.
func schedule(o options, cases []*compileCase) ([]query, error) {
	rng := rand.New(rand.NewSource(o.seed))
	rate := serveRate
	if o.smoke {
		rate = smokeRate
	}
	n := int(rate * o.seconds)
	nMemo := int(math.Round(memoShare * float64(n)))
	nRun := int(math.Round(runShare * float64(n)))
	if nMemo == 0 || nRun == 0 || n-nMemo-nRun == 0 {
		return nil, fmt.Errorf("%d requests leave a path empty; raise --seconds", n)
	}
	classes := make([]int, n)
	for i := range classes {
		switch {
		case i < nMemo:
			classes[i] = classMemo
		case i < nMemo+nRun:
			classes[i] = classRun
		default:
			classes[i] = classCompile
		}
	}
	// Each compile request needs a tile-width vector no earlier request
	// of its spec used, which caps --seconds (about 37 s at serveRate).
	nCompile := n - nMemo - nRun
	for i, c := range cases {
		if need := (nCompile + len(cases) - 1 - i) / len(cases); need > c.unusedWidths() {
			return nil, fmt.Errorf("--seconds %g needs %d compile requests of %s, but only %d of its tile-width vectors (widths %d..%d) are unused; at %.0f req/s --seconds can be at most %.0f",
				o.seconds, need, c.name, c.unusedWidths(), widthLo, widthLo+widthCount-1, rate,
				float64(c.unusedWidths()*len(cases))/(rate*(1-memoShare-runShare)))
		}
	}
	rng.Shuffle(n, func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	keys := memoKeys(o.smoke)
	// bandit2 and knap come twice as often as mcm and obst, whose runs
	// take well under a millisecond: with equal shares the path's median
	// would sit on the edge between the two clusters and jump with noise.
	runProblems := []string{"bandit2", "knap", "mcm", "bandit2", "knap", "obst"}
	var t float64
	qs := make([]query, n)
	menus := map[string]*cycler{}
	for _, name := range runProblems {
		if menus[name] == nil {
			menus[name] = &cycler{menu: runMenu(name, o.smoke)}
		}
	}
	var nr, nc int
	for i, cl := range classes {
		t += rng.ExpFloat64() / rate
		q := query{class: cl, due: time.Duration(t * float64(time.Second))}
		var req serve.QueryRequest
		switch cl {
		case classMemo:
			k := keys[rng.Intn(len(keys))]
			req = serve.QueryRequest{Problem: k.problem, Params: k.params}
			q.key = problemKey(req.Problem, req.Params)
		case classRun:
			name := runProblems[nr%len(runProblems)]
			nr++
			req = serve.QueryRequest{Problem: name, Params: menus[name].next(rng), NoResultCache: true}
			q.key = problemKey(name, req.Params)
		case classCompile:
			c := cases[nc%len(cases)]
			nc++
			req = serve.QueryRequest{Spec: c.retile(rng), Params: c.params}
			q.key = compileKey(c.name, c.params)
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		q.body = body
		qs[i] = q
	}
	return qs, nil
}

// serveClient posts queries with at most serveConns connections.
func serveClient() *http.Client {
	return &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true,
	}}
}

// post sends one query body and decodes the response.
func post(cl *http.Client, url string, body []byte) (int, serve.QueryResponse, error) {
	var qr serve.QueryResponse
	resp, err := cl.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, qr, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, qr, err
	}
	if resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(raw, &qr)
	}
	return resp.StatusCode, qr, err
}

// serveSetUp starts a server on loopback and primes its memo with the
// key set, returning it with its base URL.
func serveSetUp(o options, cl *http.Client) (*serve.HTTPServer, string, error) {
	srv := serve.New(serve.Options{})
	h, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	url := "http://" + h.Addr() + "/v1/query"
	for _, k := range memoKeys(o.smoke) {
		body, _ := json.Marshal(serve.QueryRequest{Problem: k.problem, Params: k.params})
		status, _, err := post(cl, url, body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("priming %s%v: HTTP %d", k.problem, k.params, status)
		}
		if err != nil {
			h.Close()
			return nil, "", err
		}
	}
	return h, url, nil
}

// runServe is serve_mix: serve.New on loopback driven as an open loop.
func runServe(o options, r *report) error {
	cases, err := loadCompileCases(o.specDir)
	if err != nil {
		return err
	}
	qs, err := schedule(o, cases)
	if err != nil {
		return err
	}
	cl := serveClient()
	defer cl.CloseIdleConnections()
	var setups []float64
	var h *serve.HTTPServer
	var url string
	for rep := 0; rep < setupReps(o); rep++ {
		if h != nil {
			cl.CloseIdleConnections()
			h.Close()
		}
		t0 := time.Now()
		if h, url, err = serveSetUp(o, cl); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer h.Close()

	start, replies, busy := openLoop(cl, url, qs)
	rss := peakRSSMB()

	// Check every reply: builtins against their serial reference,
	// re-tiled specs against the same spec at its committed widths.
	refs := map[string]float64{}
	for _, k := range memoKeys(o.smoke) {
		p, err := problems.Get(k.problem)
		if err != nil {
			return err
		}
		params := k.params
		if params == nil {
			params = p.DefaultParams
		}
		key := problemKey(k.problem, k.params)
		refs[key] = o.reference(key, p.Serial(params))
	}
	for _, c := range cases {
		body, _ := json.Marshal(serve.QueryRequest{Spec: c.text, Params: c.params})
		status, qr, err := post(cl, url, body)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("reference query for %s: HTTP %d %v", c.name, status, err)
		}
		key := compileKey(c.name, c.params)
		refs[key] = o.reference(key, qr.Value)
	}
	var lat [3][]float64
	var late, overhead, compileMs, runMs []float64
	var cached, compileCached, coalesced, computed, shed int
	loop := 0
	if o.trace {
		var end time.Duration
		for _, rp := range replies {
			end = max(end, rp.done)
		}
		loop = r.spans.add(0, "open loop", start, start.Add(end), map[string]float64{"requests": float64(len(qs))})
	}
	for i, q := range qs {
		rp := replies[i]
		late = append(late, (rp.sent - q.due).Seconds())
		if rp.status == http.StatusTooManyRequests {
			shed++
		}
		ref, ok := refs[q.key]
		if !ok && q.class == classRun {
			var req serve.QueryRequest
			_ = json.Unmarshal(q.body, &req)
			p, _ := problems.Get(req.Problem)
			ref, ok = o.reference(q.key, p.Serial(req.Params)), true
			refs[q.key] = ref
		}
		good := rp.status == http.StatusOK && ok && math.Float64bits(rp.resp.Value) == math.Float64bits(ref)
		r.check(good, "%s query %s: HTTP %d value %v, reference %v", opNames["serve_mix"][q.class], q.key, rp.status, rp.resp.Value, ref)
		if rp.status != http.StatusOK {
			continue
		}
		lat[q.class] = append(lat[q.class], (rp.done - q.due).Seconds())
		overhead = append(overhead, (rp.done-rp.sent).Seconds()-(rp.resp.CompileMs+rp.resp.RunMs)/1e3)
		if rp.resp.Cached {
			cached++
		} else {
			computed++
			if rp.resp.CompileCached {
				compileCached++
			}
		}
		if rp.resp.Coalesced {
			coalesced++
		}
		switch q.class {
		case classRun:
			runMs = append(runMs, rp.resp.RunMs/1e3)
		case classCompile:
			compileMs = append(compileMs, rp.resp.CompileMs/1e3)
		}
		if o.trace {
			r.spans.add(loop, "query:"+opNames["serve_mix"][q.class], start.Add(rp.sent), start.Add(rp.done),
				map[string]float64{"due_s": q.due.Seconds(), "compile_ms": rp.resp.CompileMs, "run_ms": rp.resp.RunMs})
		}
	}
	r.notef("set-ups (s): %.4f", setups)
	r.notef("offered %.0f req/s for %.1fs: %d memo, %d run, %d compile; client+server CPU busy share %.2f of %d CPUs",
		float64(len(qs))/o.seconds, o.seconds, len(lat[0]), len(lat[1]), len(lat[2]), busy, runtime.NumCPU())
	if !o.trace {
		r.setMedian("setup_s", setups, 1)
		r.set("peak_rss_mb", rss, 1)
		for i := range lat {
			r.setOp(i, lat[i])
		}
		return nil
	}
	r.setTail("serve.memo.p99_ms", lat[classMemo], 0.99)
	r.setTail("serve.run.p95_ms", lat[classRun], 0.95)
	r.setTail("serve.compile.p90_ms", lat[classCompile], 0.90)
	r.setMedian("serve.handler_overhead_ms", overhead, 1e3)
	r.setMedian("serve.compile_ms", compileMs, 1e3)
	r.setMedian("serve.run_ms", runMs, 1e3)
	r.set("serve.memo_hit_share", float64(cached)/float64(len(qs)), len(qs))
	r.set("serve.compile_hit_share", float64(compileCached)/float64(computed), computed)
	r.set("serve.coalesced", float64(coalesced), len(qs))
	r.set("serve.shed", float64(shed), len(qs))
	r.setTail("serve.gen_late_ms", late, 0.99)
	r.set("serve.canonicalize_us", canonicalizeMicros(cases), len(cases))
	return nil
}

// openLoop sends every query at its due time (or as soon as one of the
// serveConns senders is free) and returns the replies, with the share
// of the host's CPUs this process kept busy meanwhile.
func openLoop(cl *http.Client, url string, qs []query) (time.Time, []reply, float64) {
	replies := make([]reply, len(qs))
	next := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	cpu0 := cpuSeconds()
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				rp := &replies[i]
				rp.sent = time.Since(start)
				status, qr, err := post(cl, url, qs[i].body)
				rp.done = time.Since(start)
				if err == nil {
					rp.status, rp.resp = status, qr
				}
			}
		}()
	}
	for i, q := range qs {
		if d := q.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		next <- i
	}
	close(next)
	wg.Wait()
	busy := (cpuSeconds() - cpu0) / time.Since(start).Seconds() / float64(runtime.NumCPU())
	return start, replies, busy
}

// canonicalizeMicros is the median time to canonicalize and hash one
// compile-path spec, in microseconds.
func canonicalizeMicros(cases []*compileCase) float64 {
	var xs []float64
	for rep := 0; rep < 20; rep++ {
		for _, c := range cases {
			sp, err := spec.Parse(c.text)
			if err != nil {
				continue
			}
			t0 := time.Now()
			_ = serve.SpecHash(serve.Canonicalize(sp))
			xs = append(xs, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	return median(xs)
}

// cpuSeconds is this process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
