package dpgen

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dpgen/internal/engine"
	"dpgen/internal/mpi/tcp"
	"dpgen/internal/obs"
	"dpgen/internal/problems"
)

// buildDprunBinary compiles cmd/dprun into the test's temp dir.
func buildDprunBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "dprun")
	build := exec.Command("go", "build", "-o", bin, "./cmd/dprun")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/dprun: %v\n%s", err, out)
	}
	return bin
}

// parseMergedTrace loads and re-parses a merged trace file.
func parseMergedTrace(t *testing.T, path string) *Trace {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := ParseTrace(f)
	if err != nil {
		t.Fatalf("parsing merged trace %s: %v", path, err)
	}
	return tr
}

// TestDprunTraceMergeClean is the clean-run end-to-end check of the
// observability plane: a two-OS-process lcs2 job through -launch with
// -trace, -report, -stats-json and -metrics-out must produce one
// clock-aligned merged Perfetto file that satisfies the strict
// invariants, a report whose critical path respects the makespan, a
// two-entry stats array, and an aggregated metrics exposition.
func TestDprunTraceMergeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process-spawning test in -short mode")
	}
	bin := buildDprunBinary(t)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "out.json")
	statsPath := filepath.Join(dir, "stats.json")
	metricsPath := filepath.Join(dir, "metrics.prom")

	cmd := exec.Command(bin, "-problem", "lcs2", "-distributed", "-launch", "2", "-threads", "2",
		"-trace", tracePath, "-report", "-stats-json", statsPath, "-metrics-out", metricsPath, "-check")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("dprun -launch with observability flags: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{"OK (bit-identical)", "(merged, 2 ranks,", "run report:", "load imbalance ratio"} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q:\n%s", want, text)
		}
	}

	// Merged trace: one file, aligned metadata, strict invariants, and
	// the per-rank intermediates cleaned up.
	tr := parseMergedTrace(t, tracePath)
	if tr.Meta == nil || !tr.Meta.Aligned || tr.Meta.Ranks != 2 {
		t.Fatalf("merged trace meta = %+v, want aligned 2-rank metadata", tr.Meta)
	}
	if viol := VerifyMergedTrace(tr, true); len(viol) != 0 {
		t.Errorf("merged trace violates strict invariants: %v", viol)
	}
	if len(tr.Flows) == 0 {
		t.Error("merged trace has no cross-rank flows; lcs2 over 2 ranks must exchange edges")
	}
	nodes := map[int32]bool{}
	for _, l := range tr.Lanes {
		nodes[l.Node] = true
	}
	if !nodes[0] || !nodes[1] {
		t.Errorf("merged trace lanes cover nodes %v, want both ranks", nodes)
	}
	for r := 0; r < 2; r++ {
		if _, err := os.Stat(tracePath + ".rank" + string(rune('0'+r))); err == nil {
			t.Errorf("per-rank trace file rank%d survived the merge", r)
		}
	}

	// Run-wide report invariant: cross-rank critical path <= makespan.
	p, err := problems.Get("lcs2")
	if err != nil {
		t.Fatal(err)
	}
	tl, err := Analyze(p.Spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := BuildRunReport(tl, tr, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CritPath == nil {
		t.Fatal("run report lacks the critical path")
	}
	if cp, mk := rep.CritPath.CriticalPath, rep.CritPath.Makespan; cp > mk {
		t.Errorf("critical path %v exceeds makespan %v", cp, mk)
	}
	if len(rep.Ranks) != 2 {
		t.Errorf("report covers %d ranks, want 2", len(rep.Ranks))
	}

	// Stats rollup: one JSON array entry per rank, wire counters set.
	var docs []struct {
		Rank  int `json:"rank"`
		Ranks int `json:"ranks"`
		Nodes []struct {
			WireBytesSent int64
			WireBytesRecv int64
		} `json:"nodes"`
		Net *struct {
			ClockRTTNs int64 `json:"clock_rtt_ns"`
		} `json:"net"`
	}
	b, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &docs); err != nil {
		t.Fatalf("stats rollup is not a JSON array: %v\n%s", err, b)
	}
	if len(docs) != 2 {
		t.Fatalf("stats rollup has %d entries, want 2", len(docs))
	}
	for i, d := range docs {
		if d.Rank != i || d.Ranks != 2 || len(d.Nodes) != 1 {
			t.Errorf("stats entry %d = %+v, want rank %d of 2 with one node", i, d, i)
		}
		if len(d.Nodes) == 1 && d.Nodes[0].WireBytesSent == 0 {
			t.Errorf("stats entry %d has zero wire bytes sent", i)
		}
		if d.Net == nil {
			t.Errorf("stats entry %d lacks the transport net snapshot", i)
		} else if i != 0 && d.Net.ClockRTTNs <= 0 {
			t.Errorf("rank %d reports no clock-probe RTT", i)
		}
	}

	// Metrics aggregate: rank-labelled families from both ranks, HELP
	// lines deduplicated.
	mb, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	mtext := string(mb)
	for _, want := range []string{
		`dp_net_bytes_sent_total{rank="0"}`,
		`dp_net_bytes_sent_total{rank="1"}`,
		`dp_edge_latency_seconds_count{rank="0"}`,
	} {
		if !strings.Contains(mtext, want) {
			t.Errorf("aggregated metrics lack %q:\n%s", want, mtext)
		}
	}
	if n := strings.Count(mtext, "# HELP dp_net_bytes_sent_total"); n != 1 {
		t.Errorf("HELP line for dp_net_bytes_sent_total appears %d times, want 1 (dedup)", n)
	}

	// The -check-trace mode must accept the file it just produced.
	check := exec.Command(bin, "-check-trace", tracePath, "-problem", "lcs2")
	if out, err := check.CombinedOutput(); err != nil {
		t.Errorf("dprun -check-trace rejected a clean merged trace: %v\n%s", err, out)
	}
}

// TestDprunTraceMergeRecovery runs the observability plane through a
// crash-and-rejoin job: the merged trace must still verify under the
// lenient recovery rules and must contain the transport's recovery
// instants (peer-down, rejoin, replay) on the dedicated lane.
func TestDprunTraceMergeRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process-spawning test in -short mode")
	}
	bin := buildDprunBinary(t)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "rec.json")

	cmd := exec.Command(bin, "-problem", "lcs2", "-distributed", "-launch", "2", "-threads", "2",
		"-ckpt-dir", t.TempDir(), "-ckpt-every", "8", "-kill-rank", "1", "-crash-after-tiles", "20",
		"-trace", tracePath, "-check")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("supervised recovery run with -trace: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{"OK (bit-identical)", "recovered after", "(merged, 2 ranks,"} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q:\n%s", want, text)
		}
	}

	tr := parseMergedTrace(t, tracePath)
	if viol := VerifyMergedTrace(tr, false); len(viol) != 0 {
		t.Errorf("recovery trace violates lenient invariants: %v", viol)
	}
	kinds := map[obs.Kind]int{}
	recoveryLane := false
	for _, e := range tr.Events {
		kinds[e.Kind]++
	}
	for _, l := range tr.Lanes {
		if l.Name == "recovery" {
			recoveryLane = true
		}
	}
	if !recoveryLane {
		t.Error("merged trace has no recovery lane")
	}
	if kinds[obs.KPeerDown] == 0 {
		t.Error("merged trace records no peer-down instant despite the injected crash")
	}
	if kinds[obs.KRejoin] == 0 && kinds[obs.KReplay] == 0 {
		t.Error("merged trace records neither a rejoin nor a replay instant")
	}

	// Strict check-trace must reject it; lenient must accept it.
	strict := exec.Command(bin, "-check-trace", tracePath, "-problem", "lcs2")
	if out, err := strict.CombinedOutput(); err == nil {
		t.Errorf("strict -check-trace accepted a recovery trace with orphaned sends:\n%s", out)
	}
	lenient := exec.Command(bin, "-check-trace", tracePath, "-problem", "lcs2", "-trace-lenient")
	if out, err := lenient.CombinedOutput(); err != nil {
		t.Errorf("lenient -check-trace rejected the recovery trace: %v\n%s", err, out)
	}
}

// TestDistributedTracingOverheadGuard checks that untraced runs do
// not pay for the cross-rank tracing path. With no tracer attached,
// DATA frames still carry the aligned send stamp and the transport
// still runs the clock-sync handshake. The guard compares the same
// two-rank job with and without clock sync by counts that repeat
// exactly, not by wall time: the DATA messages must match, and the
// armed run's extra wire bytes — the handshake — must be the same for
// two problem sizes with different edge counts, so no byte of it is
// paid per edge.
func TestDistributedTracingOverheadGuard(t *testing.T) {
	p, err := problems.Get("bandit2")
	if err != nil {
		t.Fatal(err)
	}
	// run solves bandit2 at size N over two TCP ranks and returns the
	// DATA messages and the wire bytes both ranks wrote, read after the
	// engine closed the transports (so every ACK and BYE is counted).
	run := func(N int64, clockSync bool) (messages, wire int64) {
		trs := make([]*tcp.Transport, 2)
		res := runDistributedTCPOpts(t, p, []int64{N}, 2, 2,
			func(r int, o *tcp.Options) { o.DisableClockSync = !clockSync },
			func(r int, c *engine.Config) {
				trs[r] = c.Transport.(*tcp.Transport)
				// The handshake runs beside the engine; let it finish so
				// its frames are all counted. Rank 1's probe RTT is set
				// once its last round completed.
				for deadline := time.Now().Add(10 * time.Second); clockSync && r == 1; time.Sleep(time.Millisecond) {
					if _, rtt := trs[r].ClockOffset(); rtt != 0 {
						break
					}
					if time.Now().After(deadline) {
						t.Error("clock sync never completed")
						break
					}
				}
			})
		for _, tr := range trs {
			sent, _ := tr.Bytes()
			wire += sent
		}
		return res[0].Messages, wire
	}

	var handshake []int64
	for _, N := range []int64{20, 40} {
		baseMsgs, baseWire := run(N, false)
		armedMsgs, armedWire := run(N, true)
		if armedMsgs != baseMsgs {
			t.Errorf("N=%d: %d DATA messages with clock sync, %d without", N, armedMsgs, baseMsgs)
		}
		t.Logf("N=%d: %d DATA messages, %d wire bytes untraced-baseline, %d armed", N, baseMsgs, baseWire, armedWire)
		handshake = append(handshake, armedWire-baseWire)
	}
	if handshake[0] <= 0 || handshake[0] != handshake[1] {
		t.Errorf("armed runs wrote %v extra wire bytes at N=20 and N=40; want the same positive handshake cost at both sizes", handshake)
	}
}
