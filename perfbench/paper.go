package main

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"dpgen/internal/balance"
	"dpgen/internal/engine"
	"dpgen/internal/mpi/tcp"
	"dpgen/internal/obs"
	"dpgen/internal/problems"
	"dpgen/internal/tiling"
	"dpgen/internal/workload"
)

// setupReps is how many times a run sets up; setup_s is the median.
// serve_mix sets up more often: one set-up takes about 0.6 s, and its
// setup_s spread most over seeds.
func setupReps(o options) int {
	switch {
	case o.smoke:
		return 1
	case o.workload == "serve_mix":
		return 7
	}
	return 3
}

// traceTolerance is how far a traced solve's per-worker spans may fall
// short of (or exceed) its wall time × workers before the accounting
// check fails, as a share of that budget. The remainder is reported as
// engine.unaccounted_s.
const traceTolerance = 0.30

// solveCase is one of the three paper-scale problems of a solve
// workload.
type solveCase struct {
	name   string
	prob   *problems.Problem
	params []int64
	prep   *engine.Prepared

	setup, tilingNew, balanceBuild, prepare []float64 // seconds per set-up
	dials                                   []float64 // seconds per TCP mesh
	solves, traced                          []float64 // seconds per solve
	values                                  []float64 // every value returned, checked at the end
	layers                                  map[string][]float64
	unaccountedShare                        []float64 // |unaccounted| ÷ wall × workers per traced solve
}

func (c *solveCase) layer(name string, v float64) {
	if c.layers == nil {
		c.layers = map[string][]float64{}
	}
	c.layers[name] = append(c.layers[name], v)
}

// lcsSeeds are the DNA seeds of lcs2's two strings for a workload seed.
// The generated programs rebuild the same strings from them (see
// generated.go).
func lcsSeeds(seed int64) (uint64, uint64) { return uint64(seed), uint64(seed) + 1 }

// paperCases builds bandit2 N=100, lcs2 2000x2000 on seeded DNA and
// knap N=2000 C=2000 W=3 (smoke mode: tiny sizes).
func paperCases(o options) []*solveCase {
	nb, nl, nk := int64(100), 2000, int64(2000)
	if o.smoke {
		nb, nl, nk = 10, 90, 40
	}
	sa, sb := lcsSeeds(o.seed)
	return []*solveCase{
		{name: "bandit2", prob: problems.Bandit2(), params: []int64{nb}},
		{name: "lcs2", prob: problems.LCS2(workload.DNA(nl, sa), workload.DNA(nl, sb)), params: []int64{int64(nl), int64(nl)}},
		{name: "knap", prob: problems.Knapsack(), params: []int64{nk, nk, 3}},
	}
}

// runPaper is paper_inproc (one node, two worker threads) or, with
// overTCP, paper_tcp2 (two TCP ranks on loopback inside this process,
// one worker each).
func runPaper(o options, r *report, overTCP bool) error {
	nodes, threads := 1, 2
	if overTCP {
		nodes, threads = 2, 1
	}
	cases := paperCases(o)
	var setupSums []float64
	for rep := 0; rep < setupReps(o); rep++ {
		sum := 0.0
		for _, c := range cases {
			s, err := setUp(o, r, c, nodes)
			if err != nil {
				return err
			}
			var mesh []*tcp.Transport
			if overTCP {
				var d float64
				if mesh, d, err = dialMesh(nodes); err != nil {
					return err
				}
				c.dials = append(c.dials, d)
				s += d
			}
			sum += s
			c.setup = append(c.setup, s)
			// A warm-up solve per set-up; its value is checked too.
			res, _, err := solve(c, mesh, threads, nil)
			if err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
			c.values = append(c.values, res...)
		}
		setupSums = append(setupSums, sum)
	}

	rng := rand.New(rand.NewSource(o.seed))
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for round := 0; round < 2 || time.Now().Before(deadline); round++ {
		for _, i := range rng.Perm(len(cases)) {
			c := cases[i]
			// Traced runs interleave untraced and traced solves so the
			// tracing overhead is measured under the same conditions.
			modes := []bool{false}
			if o.trace {
				modes = []bool{round%2 == 0, round%2 == 1}
			}
			for _, traced := range modes {
				if err := timedSolve(o, r, c, nodes, threads, overTCP, traced); err != nil {
					return err
				}
			}
		}
	}

	// Peak memory is read before any serial reference runs: the lcs2
	// reference table alone is 32 MB.
	rss := peakRSSMB()
	for _, c := range cases {
		ref := o.reference(c.name, c.prob.Serial(c.params))
		for _, v := range c.values {
			r.check(math.Float64bits(v) == math.Float64bits(ref), "%s%v = %v, serial reference %v", c.name, c.params, v, ref)
		}
	}
	if !o.trace {
		r.set("peak_rss_mb", rss, 1)
		r.setMedian("setup_s", setupSums, 1)
		for i, c := range cases {
			r.setOp(i, c.solves)
			r.notef("%s%v: solve p50 %.4fs over %d, setup p50 %.4fs", c.name, c.params, median(c.solves), len(c.solves), median(c.setup))
		}
		return nil
	}
	var tracedSum, plainSum float64
	for _, c := range cases {
		p := "." + c.name
		r.setMedian("tiling.new_s"+p, c.tilingNew, 1)
		r.setMedian("balance.build_s"+p, c.balanceBuild, 1)
		r.setMedian("engine.prepare_s"+p, c.prepare, 1)
		for name, xs := range c.layers {
			r.setMedian(name+p, xs, 1)
		}
		tracedSum += median(c.traced)
		plainSum += median(c.solves)
		r.notef("%s: unaccounted share of wall × workers over %d traced solves: median %.3f, max %.3f (tolerance %.2f)",
			c.name, len(c.unaccountedShare), median(c.unaccountedShare), slices.Max(c.unaccountedShare), traceTolerance)
	}
	if overTCP {
		for _, c := range cases {
			r.setMedian("tcp.dial_s."+c.name, c.dials, 1)
		}
	}
	r.set("obs.trace_overhead", tracedSum/plainSum, len(cases))
	return nil
}

// setUp runs one set-up of c: tiling.New then engine.Prepare (and, on
// traced runs, a separate balance.Build for its own timing). It keeps
// the prepared program on c and returns the set-up seconds.
func setUp(o options, r *report, c *solveCase, nodes int) (float64, error) {
	t0 := time.Now()
	tl, err := tiling.New(c.prob.Spec)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", c.name, err)
	}
	t1 := time.Now()
	prep, err := engine.Prepare(tl, c.params, nodes, balance.Prefix)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", c.name, err)
	}
	t2 := time.Now()
	c.prep = prep
	c.tilingNew = append(c.tilingNew, t1.Sub(t0).Seconds())
	c.prepare = append(c.prepare, t2.Sub(t1).Seconds())
	if o.trace {
		root := r.spans.add(0, "setup:"+c.name, t0, t2, nil)
		r.spans.add(root, "tiling.New", t0, t1, nil)
		r.spans.add(root, "engine.Prepare", t1, t2, nil)
		b0 := time.Now()
		if _, err := balance.Build(tl, c.params, nodes, balance.Prefix); err != nil {
			return 0, fmt.Errorf("%s: %w", c.name, err)
		}
		b1 := time.Now()
		c.balanceBuild = append(c.balanceBuild, b1.Sub(b0).Seconds())
		r.spans.add(root, "balance.Build (separate call)", b0, b1, nil)
	}
	return t2.Sub(t0).Seconds(), nil
}

// timedSolve runs one measured solve of c, dialing a fresh mesh first
// over TCP (a distributed run consumes its transports).
func timedSolve(o options, r *report, c *solveCase, nodes, threads int, overTCP, traced bool) error {
	var mesh []*tcp.Transport
	if overTCP {
		m, d, err := dialMesh(nodes)
		if err != nil {
			return err
		}
		mesh = m
		c.dials = append(c.dials, d)
	}
	var tracers []*obs.Tracer
	if traced {
		for i := 0; i < nodes; i++ {
			tracers = append(tracers, obs.NewTracerCap(1<<21))
		}
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	if o.trace && !traced {
		runtime.ReadMemStats(&ms0)
	}
	vals, out, err := solve(c, mesh, threads, tracers)
	if err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	c.values = append(c.values, vals...)
	if !traced {
		c.solves = append(c.solves, out.wall.Seconds())
		if o.trace {
			runtime.ReadMemStats(&ms1)
			c.layer("engine.alloc_bytes_per_cell", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(out.cells()))
		}
		return nil
	}
	c.traced = append(c.traced, out.wall.Seconds())
	return account(o, r, c, out, tracers, threads)
}

// solveOut is what one solve leaves for the per-layer accounting.
type solveOut struct {
	start time.Time
	wall  time.Duration
	res   []*engine.Result // one per rank (one in-process)
}

func (s *solveOut) cells() int64 {
	var n int64
	for _, res := range s.res {
		for _, st := range res.Stats {
			n += st.CellsComputed
		}
	}
	return n
}

// solve runs the prepared program once: in-process with threads
// workers, or as one goroutine per rank over mesh. It returns every
// rank's value.
func solve(c *solveCase, mesh []*tcp.Transport, threads int, tracers []*obs.Tracer) ([]float64, *solveOut, error) {
	tracerOf := func(i int) *obs.Tracer {
		if tracers == nil {
			return nil
		}
		return tracers[i]
	}
	out := &solveOut{start: time.Now()}
	if mesh == nil {
		res, err := c.prep.Run(c.prob.Kernel, engine.Config{Threads: threads, Tracer: tracerOf(0)})
		out.wall = time.Since(out.start)
		if err != nil {
			return nil, nil, err
		}
		out.res = []*engine.Result{res}
		return []float64{res.Value}, out, nil
	}
	out.res = make([]*engine.Result, len(mesh))
	errs := make([]error, len(mesh))
	var wg sync.WaitGroup
	for i, tr := range mesh {
		wg.Add(1)
		go func(i int, tr *tcp.Transport) {
			defer wg.Done()
			out.res[i], errs[i] = c.prep.Run(c.prob.Kernel, engine.Config{Transport: tr, Threads: threads, Tracer: tracerOf(i)})
		}(i, tr)
	}
	wg.Wait()
	out.wall = time.Since(out.start)
	var vals []float64
	for i, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("rank %d: %w", i, err)
		}
		vals = append(vals, out.res[i].Value)
	}
	return vals, out, nil
}

// dialMesh establishes an n-rank TCP mesh on loopback, every rank in
// this process, and returns it with the time it took.
func dialMesh(n int) ([]*tcp.Transport, float64, error) {
	t0 := time.Now()
	lns := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, 0, err
		}
		lns[i], peers[i] = ln, ln.Addr().String()
	}
	mesh := make([]*tcp.Transport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range mesh {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mesh[i], errs[i] = tcp.Dial(i, peers, tcp.Options{Listener: lns[i]})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, t := range mesh {
				if t != nil {
					t.Close()
				}
			}
			return nil, 0, err
		}
	}
	return mesh, time.Since(t0).Seconds(), nil
}

// account turns one traced solve into per-layer samples and checks that
// the workers' spans cover wall time × workers within traceTolerance.
func account(o options, r *report, c *solveCase, out *solveOut, tracers []*obs.Tracer, threads int) error {
	workers := float64(threads * len(out.res))
	var kernel, unpack, pack, idle, stall, gaps, initScan, maxInit, rankIdle float64
	var static, steals, tiles, pendEdges, bufElems, edges, wire int64
	sends := map[string]int64{} // edge -> absolute send time, ns
	var lat []float64
	snaps := make([]*obs.Trace, len(tracers))
	for i, tr := range tracers {
		snap := tr.Snapshot()
		snaps[i] = snap
		if d := snap.Dropped(); d > 0 {
			return fmt.Errorf("%s: trace dropped %d events; raise the lane capacity", c.name, d)
		}
		workerLane := map[[2]int32]bool{}
		for _, l := range snap.Lanes {
			if strings.HasPrefix(l.Name, "worker") {
				workerLane[[2]int32{l.Node, l.Lane}] = true
			}
		}
		origin := tr.Origin().UnixNano()
		lastEnd := map[[2]int32]int64{} // per worker lane, end of its previous top-level span
		for _, e := range snap.Events {
			lane := [2]int32{e.Node, e.Lane}
			if !workerLane[lane] {
				continue
			}
			d := float64(e.Dur) / 1e9
			switch e.Kind {
			case obs.KKernel:
				kernel += d
			case obs.KUnpack:
				unpack += d
			case obs.KPack:
				pack += d
			case obs.KIdle:
				idle += d
			case obs.KStall:
				stall += d // nested inside its tile's pack span
			case obs.KSend:
				sends[e.Tile+"/"+strconv.Itoa(int(e.Dep))] = origin + e.Start
			}
			switch e.Kind {
			case obs.KKernel, obs.KUnpack, obs.KPack, obs.KIdle:
				// Time between a worker's consecutive top-level spans is
				// covered by no span; it is reported, not accounted.
				if end, ok := lastEnd[lane]; ok && e.Start > end {
					gaps += float64(e.Start-end) / 1e9
				}
				lastEnd[lane] = e.End()
			}
		}
		res := out.res[i]
		initScan += res.InitTime.Seconds()
		maxInit = math.Max(maxInit, res.InitTime.Seconds())
		for _, st := range res.Stats {
			static += st.StaticTiles
			steals += st.Steals
			tiles += st.TilesExecuted
			pendEdges += st.PeakPendingEdges
			bufElems += st.PeakBufferedElems
			edges += st.EdgesSentRemote
			wire += st.WireBytesSent
			rankIdle = math.Max(rankIdle, st.IdleTime.Seconds())
		}
	}
	// Edge latency: a remote edge's send start on one rank to its
	// arrival on the other. All ranks share this process's clock.
	for i, tr := range tracers {
		origin := tr.Origin().UnixNano()
		for _, e := range snaps[i].Events {
			if e.Kind != obs.KRecv {
				continue
			}
			if s, ok := sends[e.Tile+"/"+strconv.Itoa(int(e.Dep))]; ok {
				lat = append(lat, float64(origin+e.Start-s)/1e3)
			}
		}
	}

	wall := out.wall.Seconds()
	budget := wall * workers
	accounted := initScan*float64(threads) + kernel + unpack + pack + idle
	unaccounted := budget - accounted
	c.unaccountedShare = append(c.unaccountedShare, math.Abs(unaccounted)/budget)
	if !o.smoke { // smoke solves last microseconds; goroutine start-up dominates them
		ok := math.Abs(unaccounted) <= traceTolerance*budget
		r.check(ok, "%s trace accounts for %.4f of %.4f worker-seconds (tolerance %.0f%%)", c.name, accounted, budget, 100*traceTolerance)
	}

	cells := float64(out.cells())
	c.layer("engine.init_scan_s", maxInit)
	c.layer("engine.kernel_s", kernel)
	c.layer("engine.kernel_ns_per_cell", kernel*1e9/cells)
	c.layer("engine.unpack_s", unpack)
	c.layer("engine.pack_s", pack)
	c.layer("engine.idle_s", idle)
	c.layer("engine.send_stall_s", stall)
	c.layer("engine.span_gap_s", gaps)
	c.layer("engine.unaccounted_s", unaccounted)
	c.layer("engine.static_tile_share", float64(static)/float64(tiles))
	c.layer("engine.steal_share", float64(steals)/float64(tiles))
	c.layer("engine.peak_pending_edges", float64(pendEdges))
	c.layer("engine.peak_buffered_elems", float64(bufElems))
	if len(out.res) > 1 { // over TCP
		c.layer("tcp.edges_remote", float64(edges))
		if edges > 0 {
			c.layer("tcp.wire_bytes_per_edge", float64(wire)/float64(edges))
		}
		if len(lat) > 0 {
			c.layer("tcp.edge_latency_p50_us", median(lat))
		}
		c.layer("tcp.rank_idle_s", rankIdle)
	}
	r.spans.add(0, "Prepared.Run:"+c.name, out.start, out.start.Add(out.wall), map[string]float64{
		"workers": workers, "init_scan_s": initScan, "kernel_s": kernel, "unpack_s": unpack,
		"pack_s": pack, "idle_s": idle, "send_stall_s": stall, "span_gap_s": gaps, "unaccounted_s": unaccounted,
	})
	return nil
}

// peakRSSMB reads this process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return math.NaN()
}
