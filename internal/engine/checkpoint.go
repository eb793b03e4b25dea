// Fault-tolerance checkpoints: the on-disk snapshot a rank writes
// periodically (Config.Checkpoint) and restores from after a crash
// (Checkpoint.Resume). A checkpoint records exactly the rank's durable
// progress — the executed-tile set, the buffered dependence edges of
// tiles still waiting or queued (the O(n^{d-1}) live state), and the
// goal/max accumulators. It is encoded only while the transport reports
// zero unacknowledged sends and the node lock is held, so every tile it
// records as executed has had its outgoing edges received by their
// consumers; a tile missing from the checkpoint simply re-executes and
// re-sends on resume, and the receivers' duplicate-edge filter keeps
// every cell computed exactly once. Correctness therefore never depends
// on how fresh (or whether) a checkpoint file is.
//
// The file is a DPCKPT1 frame of the shared frontier codec
// (frontier.go): the run identity, executed set and accumulators as
// its header, then the buffered tiles as tile records.

package engine

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"dpgen/internal/obs"
)

const ckptMagic = "DPCKPT1\n"

// CheckpointPath returns the checkpoint file a rank writes inside dir:
// dir/rank-<rank>.ckpt. dprun's supervisor uses it to point a restarted
// rank at its own snapshot.
func CheckpointPath(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("rank-%d.ckpt", rank))
}

// checkpoint is the in-memory form of one rank's snapshot, both as
// gathered for encoding and as decoded on resume.
type checkpoint struct {
	rank, nodes, d, nd int
	params             []int64
	ownedTotal         int64
	executed           int64
	goalSet            bool
	goalVal            float64
	maxSet             bool
	maxVal             float64
	executedKeys       []uint64
	tiles              []*pendTile // buffered tiles: coordinates and edges only
}

// snapshot gathers the node's durable state. The caller holds
// stripes[0].mu (frontier tracking runs the pending table on one
// stripe, so that lock covers the pending/started/executedSet maps)
// and n.mu, and must encode before releasing them: the tiles' edges
// return to the pool once executed. goalMu is taken briefly inside. No
// code path acquires any of these locks in the reverse order.
func (n *node) snapshot() *checkpoint {
	e := n.eng
	ck := &checkpoint{
		rank:         n.id,
		nodes:        e.cfg.Nodes,
		d:            len(e.tl.Spec.Vars),
		nd:           len(e.tl.Spec.Deps),
		params:       e.params,
		ownedTotal:   n.ownedTotal,
		executed:     n.executed,
		executedKeys: make([]uint64, 0, len(n.executedSet)),
	}
	e.goalMu.Lock()
	ck.goalSet, ck.goalVal = e.goalSet, e.goalVal
	ck.maxSet, ck.maxVal = e.maxSet, e.maxVal
	e.goalMu.Unlock()
	for k := range n.executedSet {
		ck.executedKeys = append(ck.executedKeys, k)
	}
	n.eachLive(func(p *pendTile, _ bool) bool {
		if len(p.edges) > 0 {
			ck.tiles = append(ck.tiles, p)
		}
		return false
	})
	return ck
}

// encode serializes the snapshot as a DPCKPT1 frame.
func (ck *checkpoint) encode() []byte {
	return encodeFrame(ckptMagic, func(put func(uint64)) {
		var flags uint64
		if ck.goalSet {
			flags |= 1
		}
		if ck.maxSet {
			flags |= 2
		}
		for _, v := range []int{ck.rank, ck.nodes, ck.d, ck.nd, len(ck.params)} {
			put(uint64(v))
		}
		for _, p := range ck.params {
			put(uint64(p))
		}
		for _, v := range []uint64{uint64(ck.ownedTotal), uint64(ck.executed), flags,
			math.Float64bits(ck.goalVal), math.Float64bits(ck.maxVal), uint64(len(ck.executedKeys))} {
			put(v)
		}
		for _, k := range ck.executedKeys {
			put(k)
		}
	}, ck.tiles)
}

// writeCheckpointFile writes the blob atomically: temp file in the same
// directory, fsync, rename over the final path. A crash mid-write
// leaves the previous checkpoint intact.
func writeCheckpointFile(path string, blob []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err = f.Write(blob); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// loadCheckpoint reads and validates one checkpoint file. A missing
// file is not an error: it returns (nil, nil) and the rank resumes from
// scratch (peers redeliver everything it needs).
func loadCheckpoint(path string) (*checkpoint, error) {
	blob, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	ck := &checkpoint{}
	ck.tiles, err = decodeFrame(blob, ckptMagic, "checkpoint", func(r *frameReader) int {
		ck.rank, ck.nodes, ck.d, ck.nd = int(r.i64()), int(r.i64()), int(r.i64()), int(r.i64())
		ck.params = make([]int64, r.count())
		for i := range ck.params {
			ck.params[i] = r.i64()
		}
		ck.ownedTotal, ck.executed = r.i64(), r.i64()
		flags := r.u64()
		ck.goalSet, ck.goalVal = flags&1 != 0, r.f64()
		ck.maxSet, ck.maxVal = flags&2 != 0, r.f64()
		ck.executedKeys = make([]uint64, r.count())
		for i := range ck.executedKeys {
			ck.executedKeys[i] = r.u64()
		}
		return ck.d
	})
	if err != nil {
		return nil, fmt.Errorf("engine: %s: %w", path, err)
	}
	return ck, nil
}

// resume restores the node from its checkpoint, if there is one: it
// checks the snapshot against this run's configuration, restores the
// executed-tile set and the goal/max accumulators, and absorbs the
// buffered tiles, rebuilding each one's dependence state exactly as it
// was. Edges from producers this rank already executed arrive only
// here (those producers will not re-run); edges from the others arrive
// again later and the duplicate filter drops them. Runs on the seeding
// goroutine, before workers start.
func (n *node) resume() error {
	e := n.eng
	ck, err := loadCheckpoint(n.ckptPath)
	if err != nil || ck == nil {
		return err
	}
	switch {
	case ck.rank != n.id:
		err = fmt.Errorf("rank %d, want %d", ck.rank, n.id)
	case ck.nodes != e.cfg.Nodes:
		err = fmt.Errorf("%d ranks, want %d", ck.nodes, e.cfg.Nodes)
	case ck.d != len(e.tl.Spec.Vars) || ck.nd != len(e.tl.Spec.Deps):
		err = fmt.Errorf("%d vars/%d deps, want %d/%d",
			ck.d, ck.nd, len(e.tl.Spec.Vars), len(e.tl.Spec.Deps))
	case !slices.Equal(ck.params, e.params):
		err = fmt.Errorf("params %v, want %v", ck.params, e.params)
	case ck.ownedTotal != n.ownedTotal:
		err = fmt.Errorf("%d owned tiles, want %d", ck.ownedTotal, n.ownedTotal)
	}
	if err != nil {
		return fmt.Errorf("engine: checkpoint %s is from a different run (%w)", n.ckptPath, err)
	}
	for _, k := range ck.executedKeys {
		n.executedSet[k] = struct{}{}
	}
	n.executed = ck.executed
	e.goalMu.Lock()
	if ck.goalSet {
		e.goalVal = ck.goalVal
		e.goalSet = true
	}
	if ck.maxSet && (!e.maxSet || ck.maxVal > e.maxVal) {
		e.maxVal = ck.maxVal
		e.maxSet = true
	}
	e.goalMu.Unlock()
	lane := n.initLane()
	var t0 int64
	if lane != nil {
		t0 = lane.Now()
	}
	edges := n.absorb(ck.tiles, lane, newDelivState(e))
	if lane != nil {
		lane.Span(obs.KRecover, "", -1, edges, t0)
	}
	return nil
}

// checkpointer is the per-node background loop that writes due
// checkpoints. It exists so waiting for transport quiescence happens
// off the worker hot path: a tile's completion instant almost always
// has that tile's own sends still unacknowledged, so an inline check at
// completion would nearly always skip on sender-heavy ranks. Polling at
// a millisecond cadence instead catches the short quiescent windows
// between send bursts. The loop exits after the node is marked done,
// with one final attempt so the on-disk snapshot reflects the finished
// frontier.
func (n *node) checkpointer(lane *obs.Lane) {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		n.mu.Lock()
		done := n.done
		due := n.ckptDue && !n.crashed
		n.mu.Unlock()
		if due {
			n.maybeCheckpoint(lane)
		}
		if done {
			return
		}
		<-tick.C
	}
}

// maybeCheckpoint writes a checkpoint if one is due (ckptEvery executed
// tiles elapsed) and the transport is quiescent. Encoding happens under
// the node lock; the file write does not. A failed or skipped write
// just leaves the checkpoint due — the checkpointer retries.
func (n *node) maybeCheckpoint(lane *obs.Lane) {
	st0 := &n.stripes[0]
	st0.mu.Lock()
	n.mu.Lock()
	if !n.ckptDue || n.ckptBusy || n.crashed {
		n.mu.Unlock()
		st0.mu.Unlock()
		return
	}
	if !n.quiescent() {
		n.mu.Unlock()
		st0.mu.Unlock()
		return
	}
	n.ckptBusy = true
	n.ckptDue = false
	var t0 int64
	if lane != nil {
		t0 = lane.Now()
	}
	blob := n.snapshot().encode()
	n.mu.Unlock()
	st0.mu.Unlock()

	err := writeCheckpointFile(n.ckptPath, blob)
	n.mu.Lock()
	n.ckptBusy = false
	if err == nil {
		n.st.Checkpoints++
		n.st.CheckpointBytes += int64(len(blob))
	} else {
		n.ckptDue = true
	}
	n.mu.Unlock()
	if err == nil && lane != nil {
		lane.Span(obs.KCheckpoint, "", -1, int64(len(blob)), t0)
	}
}
