// Elastic cluster membership: ranks may join or leave a distributed
// run while it executes (Config.Elastic; see docs/ELASTICITY.md). The
// transport mesh is fixed at the world size W up front; membership is
// the subset of ranks that own tiles. Rank 0 coordinates view changes:
//
//	PREP(e)  rank 0 -> all W ranks. Each rank pauses its workers at a
//	         tile boundary, drains its unacknowledged sends to zero,
//	         and answers ACK(e, census) with its executed-per-slab
//	         counts. ACKs are sent at the transport's quiescence point
//	         (acknowledgements fire after delivery), so all W ACKs at
//	         rank 0 mean every dependence edge ever sent has been
//	         applied somewhere — nothing is in flight.
//	EPOCH(e, members, census)  rank 0 -> all W ranks, after merging
//	         the per-rank censuses. Every rank runs the same
//	         deterministic balance.Rebalance locally — no ownership
//	         table crosses the wire — extracts the live tiles it no
//	         longer owns, resumes its workers, and ships the extracted
//	         tiles (with their buffered edges) to the new owners as
//	         DATA frames with tag -1, riding the normal
//	         acknowledgement and backpressure machinery.
//	FIN      rank 0 -> all W ranks once the scale schedule and every
//	         expected voluntary leave have been honoured; termination
//	         is gated on it so a rank that currently owns zero tiles
//	         (a standby before its join, a member after its leave)
//	         keeps serving the mesh instead of exiting.
//
// JOIN and LEAVE are requests to rank 0: a joining rank announces
// itself and is admitted by the scale schedule; a leaving rank asks out
// after LeaveAfterTiles executed tiles and holds there until the view
// change strips its ownership. A threshold holds the rank that crossed
// it (rank 0 at a ScaleAt event, a leaver at its LeaveAfterTiles), so
// its view change always finds that rank's remaining tiles unexecuted
// and movable. Departed ranks stay connected —
// they answer PREPs trivially and join the final result merge — so a
// "leave" is a transfer of work, not a socket teardown.
//
// Bit-identity is preserved because nothing about cell arithmetic
// changes: each tile still executes exactly once, from exactly the
// edges its producers packed, on whichever rank owns it at execution
// time. The migration blob moves buffered edges byte-for-byte, and the
// duplicate-edge filter (shared with fault tolerance) makes any stale
// or replayed edge a no-op.

package engine

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"dpgen/internal/balance"
	"dpgen/internal/mpi"
	"dpgen/internal/obs"
)

// ScaleEvent is one entry of rank 0's scale schedule: once rank 0 has
// executed AfterTiles tiles, Delta ranks are admitted (positive; from
// the announced joiners) or removed (negative; highest-ranked members
// first, never rank 0).
type ScaleEvent struct {
	AfterTiles int64
	Delta      int
}

// ElasticConfig enables elastic membership (Config.Elastic). It
// requires a distributed run over a transport that supports the
// membership frames (dpgen/internal/mpi/tcp) and composes with neither
// PollingRecv nor Checkpoint.
type ElasticConfig struct {
	Enabled bool
	// Members is the initial member set (rank numbers within the
	// world); nil means every rank. Must include rank 0, the
	// coordinator. Identical on every rank.
	Members []int
	// ScaleAt is rank 0's view-change schedule, processed in
	// AfterTiles order; only rank 0 reads it. Rank 0's workers hold at
	// each threshold until the event is applied, and a scale-up admits
	// the joiners announced by the event's census (every running
	// joiner). If rank 0 finishes its own tiles before an event's
	// threshold, the remaining events fire immediately.
	ScaleAt []ScaleEvent
	// JoinRequest makes this rank announce itself to rank 0 as a
	// joiner at startup. It runs as a standby (owning nothing) until a
	// positive ScaleAt event admits it.
	JoinRequest bool
	// LeaveAfterTiles, if positive, makes this rank request a
	// voluntary leave once it has executed that many tiles (or all of
	// its tiles, whichever comes first). The rank holds at that tile
	// boundary until the leave is granted, then serves as a standby; a
	// leave still ungranted at FIN is dropped and the rank finishes its
	// own tiles.
	// Rank 0 grants a leave once no view change is in flight and no
	// scale event is due.
	LeaveAfterTiles int64
	// ExpectLeaves is the number of voluntary leave requests rank 0
	// waits for before declaring the membership final (FIN); only
	// rank 0 reads it. Without it a leave racing the end of the run
	// could be granted or not depending on timing.
	ExpectLeaves int
}

// elasticTransport is the transport facet elastic membership needs,
// implemented by dpgen/internal/mpi/tcp. The in-memory communicator
// deliberately lacks it: elasticity is about processes, and the
// in-process simulation has nothing to join or leave.
type elasticTransport interface {
	SendElastic(dst int, kind byte, payload []byte) error
	ElasticCh() <-chan mpi.ElasticMsg
	SetEpoch(e uint32)
}

// normalizeMembers validates and sorts an initial member list.
func normalizeMembers(members []int, world int) ([]int, error) {
	if members == nil {
		members = make([]int, world)
		for i := range members {
			members[i] = i
		}
		return members, nil
	}
	m := append([]int(nil), members...)
	sort.Ints(m)
	for i, r := range m {
		if r < 0 || r >= world {
			return nil, fmt.Errorf("engine: elastic member rank %d out of range [0,%d)", r, world)
		}
		if i > 0 && m[i-1] == r {
			return nil, fmt.Errorf("engine: duplicate elastic member rank %d", r)
		}
	}
	if len(m) == 0 || m[0] != 0 {
		return nil, fmt.Errorf("engine: elastic members must include rank 0 (the coordinator)")
	}
	return m, nil
}

// ownerOf resolves a tile's owning rank under the current epoch's
// assignment; outside elastic runs it is the static assignment.
func (e *engine) ownerOf(t []int64) int {
	if a := e.assignP.Load(); a != nil {
		return a.Owner(t)
	}
	return e.assign.Owner(t)
}

// ---- worker pause protocol ----
//
// A view change must observe the rank at a tile boundary: no tile in
// execution, so the executed census and the live-tile tables are a
// consistent cut. Workers claim an executing slot *before* popping a
// tile (so a popped tile is always covered by a slot) and release it
// after the tile retires or the pop comes up empty. The pauser raises
// paused, which parks workers at the gate, and waits for the in-flight
// slots to drain. Receivers never pause — acknowledgements must keep
// flowing or no rank could ever drain its sends.

// pauseGate parks the worker while a view change is in progress or the
// rank is held at a threshold, then claims an executing slot.
func (n *node) pauseGate() {
	n.mu.Lock()
	for (n.paused || n.held) && !n.done {
		n.pauseCond.Wait()
	}
	n.executingN++
	n.mu.Unlock()
}

// execDone releases the worker's executing slot, waking the pauser
// when the last in-flight tile retires.
func (n *node) execDone() {
	n.mu.Lock()
	n.executingN--
	if n.executingN == 0 && n.paused {
		n.quietCond.Signal()
	}
	n.mu.Unlock()
}

// pauseWorkers stops tile execution at the next tile boundary and
// waits until no tile is in flight. Called from the elastic loop.
func (n *node) pauseWorkers() {
	n.mu.Lock()
	n.paused = true
	for n.executingN > 0 {
		n.quietCond.Wait()
	}
	n.mu.Unlock()
}

// resumeWorkers reopens the gate and wakes sleepers so they rescan the
// queues (the view change may have migrated ready tiles in).
func (n *node) resumeWorkers() {
	n.mu.Lock()
	n.paused = false
	n.pauseCond.Broadcast()
	n.cond.Broadcast()
	n.mu.Unlock()
}

// releaseHold lets workers held at a scale or leave threshold run
// again.
func (n *node) releaseHold() {
	n.mu.Lock()
	n.held = false
	n.pauseCond.Broadcast()
	n.mu.Unlock()
}

// ---- wire payloads ----

// encodeAck snapshots this rank's executed-per-slab census (sparse:
// only nonzero slabs) under the pending-table lock, prefixed with the
// epoch being acknowledged.
func (n *node) encodeAck(epoch uint32) []byte {
	st0 := &n.stripes[0]
	st0.mu.Lock()
	nz := 0
	for _, c := range n.executedPerSlab {
		if c != 0 {
			nz++
		}
	}
	b := make([]byte, 0, 8+12*nz)
	b = binary.LittleEndian.AppendUint32(b, epoch)
	b = binary.LittleEndian.AppendUint32(b, uint32(nz))
	for i, c := range n.executedPerSlab {
		if c != 0 {
			b = binary.LittleEndian.AppendUint32(b, uint32(i))
			b = binary.LittleEndian.AppendUint64(b, uint64(c))
		}
	}
	st0.mu.Unlock()
	return b
}

// mergeAck folds one rank's sparse census into the coordinator's
// global census. Returns the acknowledged epoch.
func mergeAck(pl []byte, census []int64) (uint32, error) {
	if len(pl) < 8 {
		return 0, fmt.Errorf("engine: truncated elastic ACK")
	}
	epoch := binary.LittleEndian.Uint32(pl)
	nz := int(binary.LittleEndian.Uint32(pl[4:]))
	pl = pl[8:]
	if len(pl) != 12*nz {
		return 0, fmt.Errorf("engine: elastic ACK length %d for %d entries", len(pl), nz)
	}
	for k := 0; k < nz; k++ {
		i := int(binary.LittleEndian.Uint32(pl[12*k:]))
		c := int64(binary.LittleEndian.Uint64(pl[12*k+4:]))
		if i < 0 || i >= len(census) {
			return 0, fmt.Errorf("engine: elastic ACK slab index %d of %d", i, len(census))
		}
		census[i] += c
	}
	return epoch, nil
}

// encodeEpochPayload builds the EPOCH broadcast: epoch, member list,
// dense merged census.
func encodeEpochPayload(epoch uint32, members []int, census []int64) []byte {
	b := make([]byte, 0, 12+4*len(members)+8*len(census))
	b = binary.LittleEndian.AppendUint32(b, epoch)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(members)))
	for _, r := range members {
		b = binary.LittleEndian.AppendUint32(b, uint32(r))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(census)))
	for _, c := range census {
		b = binary.LittleEndian.AppendUint64(b, uint64(c))
	}
	return b
}

func decodeEpochPayload(pl []byte) (epoch uint32, members []int, census []int64, err error) {
	bad := fmt.Errorf("engine: truncated elastic EPOCH payload")
	if len(pl) < 8 {
		return 0, nil, nil, bad
	}
	epoch = binary.LittleEndian.Uint32(pl)
	nm := int(binary.LittleEndian.Uint32(pl[4:]))
	pl = pl[8:]
	if nm < 0 || len(pl) < 4*nm+4 {
		return 0, nil, nil, bad
	}
	members = make([]int, nm)
	for i := range members {
		members[i] = int(binary.LittleEndian.Uint32(pl[4*i:]))
	}
	pl = pl[4*nm:]
	ns := int(binary.LittleEndian.Uint32(pl))
	pl = pl[4:]
	if ns < 0 || len(pl) != 8*ns {
		return 0, nil, nil, bad
	}
	census = make([]int64, ns)
	for i := range census {
		census[i] = int64(binary.LittleEndian.Uint64(pl[8*i:]))
	}
	return epoch, members, census, nil
}

// ---- migration blob ----
//
// The blob a rank ships when a view change moves live tiles off it is
// a DPMIG01 frame (frontier.go): the epoch, then the tile records. It
// rides a normal DATA frame (tag -1), bit-packed into the float64
// payload with meta[0] holding the byte length, so migration inherits
// the transport's acknowledgement, backpressure and retention.

const migMagic = "DPMIG01\n"

// migrationBlob encodes the tiles bound for one destination.
func migrationBlob(epoch uint32, tiles []*pendTile) []byte {
	return encodeFrame(migMagic, func(put func(uint64)) { put(uint64(epoch)) }, tiles)
}

// readMigrationBlob decodes a migration blob for a d-dimensional
// tiling; the epoch is informational and skipped.
func readMigrationBlob(blob []byte, d int) ([]*pendTile, error) {
	return decodeFrame(blob, migMagic, "migration blob", func(r *frameReader) int { r.u64(); return d })
}

// blobToFloats packs blob bytes (a frame is whole 64-bit words) into
// a pooled float64 payload bit-for-bit, with meta[0] carrying the byte
// length.
func blobToFloats(blob []byte) (data []float64, meta []int64) {
	data = mpi.GetData(len(blob) / 8)
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(blob[8*i:]))
	}
	meta = mpi.GetMeta(1)
	meta[0] = int64(len(blob))
	return data, meta
}

// floatsToBlob is the inverse of blobToFloats.
func floatsToBlob(data []float64, nbytes int64) []byte {
	blob := make([]byte, 8*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint64(blob[8*i:], math.Float64bits(v))
	}
	if nbytes < 0 || nbytes > int64(len(blob)) {
		return nil
	}
	return blob[:nbytes]
}

// applyMigration absorbs one inbound migration blob on the receiver
// goroutine (see absorb). The transport slot is released only after
// this returns, so the sender's next quiescence point proves the blob
// was applied.
func (n *node) applyMigration(data []float64, meta []int64, lane *obs.Lane, ds *delivState) {
	tiles, err := readMigrationBlob(floatsToBlob(data, meta[0]), len(n.eng.tl.Spec.Vars))
	if err != nil {
		panic(fmt.Sprintf("engine: rank %d received a corrupt migration blob: %v", n.id, err))
	}
	edges := n.absorb(tiles, lane, ds)
	n.mu.Lock()
	n.st.TilesMigratedIn += int64(len(tiles))
	n.st.EdgesMigratedIn += edges
	n.mu.Unlock()
	if lane != nil {
		lane.Instant(obs.KMigrateIn, "", -1, int64(len(tiles)))
	}
}

// ---- epoch application ----

// applyEpoch runs on the elastic loop when the EPOCH broadcast
// arrives. The rank's workers are paused at a tile boundary and the
// whole job is quiescent (that is what the coordinator's ACK
// collection proved), so the pending/started tables and the census are
// a consistent global cut. It recomputes ownership, extracts the live
// tiles this rank no longer owns, installs the new assignment and
// owned-tile total, resumes the workers, and only then ships the
// migration blobs — inline on the elastic loop, so this rank cannot
// acknowledge the *next* PREP before its blobs are on the wire (and
// therefore, by the quiescence rule, applied). It returns how many
// unexecuted tiles changed owner and how many were left at the census.
func (n *node) applyEpoch(epoch uint32, members []int, census []int64, lane *obs.Lane) (moved, left int64) {
	e := n.eng
	prev := e.assignP.Load()
	next, mv, err := balance.Rebalance(prev, members, census)
	if err != nil {
		// Every input is protocol-carried state that all ranks compute
		// identically; a failure here is a protocol bug, not a user error.
		panic(fmt.Sprintf("engine: rank %d rebalance at epoch %d: %v", n.id, epoch, err))
	}

	// Extract the live tiles whose new owner is elsewhere. Partial
	// tiles live in the pending table; ready-but-unexecuted tiles in
	// the started map (and, by pointer, in some shard queue — workers
	// are paused with no tile popped, so the queues hold all of them).
	out := make(map[int][]*pendTile)
	drop := make(map[*pendTile]bool)
	st0 := &n.stripes[0]
	st0.mu.Lock()
	n.eachLive(func(p *pendTile, started bool) bool {
		o := next.Owner(p.tile)
		if o == n.id {
			return false
		}
		out[o] = append(out[o], p)
		if started {
			drop[p] = true
		}
		return true
	})
	st0.mu.Unlock()
	if len(drop) > 0 {
		n.dropQueued(drop)
	}

	// New owned-tile total: everything this rank already executed plus
	// the globally unexecuted remainder of every slab it now owns.
	var remaining int64
	slabs := next.Slabs()
	for i := range slabs {
		u := slabs[i].Tiles - census[i]
		left += u
		if next.SlabOwner(i) == n.id {
			remaining += u
		}
	}

	e.assignP.Store(next)
	n.curEpoch.Store(epoch)
	n.et.SetEpoch(epoch)
	n.mu.Lock()
	n.ownedTotal = n.executed + remaining
	n.st.Epochs++
	n.mu.Unlock()
	if lane != nil {
		lane.Instant(obs.KEpoch, "", -1, int64(epoch))
	}
	if !slices.Contains(members, n.id) {
		n.releaseHold() // a held leaver's leave is granted
	}
	n.resumeWorkers()

	// Ship the extracted tiles. Sends may block on backpressure; that
	// is fine (workers are already running) and even load-bearing: the
	// elastic loop cannot reach the next PREP until the blobs are sent.
	var tilesOut, edgesOut int64
	for dst, tiles := range out {
		blob := migrationBlob(epoch, tiles)
		var freedEdges, freedElems int64
		for _, p := range tiles {
			tilesOut++
			for i := range p.edges {
				edgesOut++
				freedEdges++
				freedElems += int64(len(p.edges[i].data))
				mpi.PutData(p.edges[i].data)
				p.edges[i] = edge{}
			}
			p.edges = p.edges[:0]
		}
		n.pendingEdges.Add(-freedEdges)
		n.bufferedElems.Add(-freedElems)
		data, meta := blobToFloats(blob)
		n.rank.Send(dst, -1, data, meta)
		if lane != nil {
			lane.Instant(obs.KMigrateOut, "", int32(dst), int64(len(tiles)))
		}
	}
	if tilesOut > 0 || edgesOut > 0 {
		n.mu.Lock()
		n.st.TilesMigratedOut += tilesOut
		n.st.EdgesMigratedOut += edgesOut
		n.mu.Unlock()
	}
	// A leaver may now own exactly what it already executed.
	n.checkFinished()
	return mv.MovedTiles, left
}

// dropQueued removes migrated-out ready tiles from the shard queues by
// pointer identity, restoring the heap invariant afterwards.
func (n *node) dropQueued(drop map[*pendTile]bool) {
	var removed int64
	for si := range n.shards {
		s := &n.shards[si]
		s.mu.Lock()
		kept := s.heap.items[:0]
		before := len(s.heap.items)
		for _, p := range s.heap.items {
			if drop[p] {
				removed++
			} else {
				kept = append(kept, p)
			}
		}
		if len(kept) != before {
			for i := len(kept); i < before; i++ {
				s.heap.items[i] = nil
			}
			s.heap.items = kept
			heap.Init(&s.heap)
		}
		s.mu.Unlock()
	}
	n.qlen.Add(-removed)
}

// noteScaleNoop records why a scale event moved nothing, in the stats
// and on the elastic trace lane.
func (n *node) noteScaleNoop(reason string, epoch uint32, lane *obs.Lane) {
	n.mu.Lock()
	n.st.ScaleNoops++
	n.st.ScaleNoopReason = reason
	n.mu.Unlock()
	if lane != nil {
		lane.Instant(obs.KScaleNoop, reason, -1, int64(epoch))
	}
}

// ---- the per-rank elastic loop ----

// elasticLoop is the rank's membership goroutine: participant protocol
// on every rank, plus the coordinator state machine on rank 0. It runs
// from launch until after the final result merge (so departed and
// standby ranks keep answering PREPs), stopping via n.stopElastic.
func (e *engine) elasticLoop(n *node, lane *obs.Lane) {
	defer n.elasticWG.Done()
	cfg := e.cfg.Elastic
	et := n.et
	world := e.cfg.Nodes

	// Coordinator state (rank 0 only).
	var (
		members    []int
		joiners    []int
		leaveReqs  []int
		leavesSeen int
		epoch      uint32
		acksLeft   int // ranks yet to ACK; 0 = no view change in flight
		census     []int64
		nextM      []int // member set of the in-flight view change
		admit      int   // joiners the in-flight view admits, resolved at its census
		scaling    bool  // the in-flight view change is a scale event
		noJoiners  bool  // the in-flight scale-up found no joiner to admit
		finSent    bool
	)
	if n.id == 0 {
		members = append([]int(nil), e.initialMembers...)
		census = make([]int64, len(e.assign.Slabs()))
	}

	aborted := func() bool {
		select {
		case <-n.stopElastic:
			return true
		default:
			return false
		}
	}

	startView := func(m []int, scale bool) {
		epoch++
		nextM, scaling = m, scale
		acksLeft = world
		for i := range census {
			census[i] = 0
		}
		var pl [4]byte
		binary.LittleEndian.PutUint32(pl[:], epoch)
		for r := 0; r < world; r++ {
			et.SendElastic(r, mpi.ElasticEpochPrep, pl[:])
		}
	}

	// dueEvent pops the scale schedule's head once rank 0 has reached
	// its threshold (or finished its own tiles). Otherwise no event is
	// due, and it releases rank 0's threshold hold in the same critical
	// section as the check, so a hold set concurrently is never lost.
	dueEvent := func() (ev ScaleEvent, due bool, left int) {
		n.mu.Lock()
		defer n.mu.Unlock()
		s := n.schedule
		if due = len(s) > 0 && (n.executed >= s[0].AfterTiles || n.executed == n.ownedTotal); due {
			ev, n.schedule = s[0], s[1:]
		} else if n.held {
			n.held = false
			n.pauseCond.Broadcast()
		}
		return ev, due, len(n.schedule)
	}

	// maybeAct runs the coordinator triggers, one view change at a time
	// and only once rank 0 has applied the previous one: a due scale
	// event, else queued voluntary leaves, else — once the schedule is
	// done and every expected leave has been seen — FIN. Rank 0 holds
	// at each event's threshold (execTile) until the event is applied,
	// so its census finds every tile rank 0 had not reached still
	// unexecuted. If rank 0 has finished its own tiles the remaining
	// schedule flushes immediately.
	maybeAct := func() {
		if n.id != 0 || finSent || acksLeft > 0 || n.curEpoch.Load() != epoch {
			return
		}
		ev, due, left := dueEvent()
		for ; due; ev, due, left = dueEvent() {
			if ev.Delta > 0 {
				// Admission is resolved at the census: a joiner announces
				// before it acknowledges any PREP, so once every rank has
				// acknowledged, every running joiner is known.
				admit = ev.Delta
				startView(members, true)
				return
			}
			// Shrink: drop the highest-ranked members; rank 0 (first,
			// since members stay sorted) is never removed.
			if m := members[:max(1, len(members)+ev.Delta)]; len(m) < len(members) {
				startView(append([]int(nil), m...), true)
				return
			}
			n.noteScaleNoop("no member to remove", epoch, lane)
		}
		if len(leaveReqs) > 0 {
			m := make([]int, 0, len(members))
			for _, r := range members {
				if !slices.Contains(leaveReqs, r) {
					m = append(m, r)
				}
			}
			leaveReqs = nil
			if len(m) < len(members) && len(m) >= 1 {
				startView(m, false)
				return
			}
		}
		if left == 0 && leavesSeen >= cfg.ExpectLeaves {
			for r := 0; r < world; r++ {
				et.SendElastic(r, mpi.ElasticFin, nil)
			}
			finSent = true
		}
	}

	handle := func(m mpi.ElasticMsg) bool {
		switch m.Kind {
		case mpi.ElasticJoin:
			if n.id != 0 {
				return true
			}
			if !slices.Contains(members, m.Src) && !slices.Contains(joiners, m.Src) && !slices.Contains(nextM, m.Src) {
				joiners = append(joiners, m.Src)
				sort.Ints(joiners)
			}
		case mpi.ElasticLeave:
			if n.id != 0 {
				return true
			}
			leavesSeen++
			if m.Src != 0 && !slices.Contains(leaveReqs, m.Src) {
				leaveReqs = append(leaveReqs, m.Src)
				sort.Ints(leaveReqs)
			}
		case mpi.ElasticEpochPrep:
			if len(m.Payload) < 4 {
				return true
			}
			prepEpoch := binary.LittleEndian.Uint32(m.Payload)
			n.pauseWorkers()
			for !n.quiescent() {
				if aborted() {
					return false
				}
				time.Sleep(20 * time.Microsecond)
			}
			et.SendElastic(0, mpi.ElasticEpochAck, n.encodeAck(prepEpoch))
		case mpi.ElasticEpochAck:
			if n.id != 0 || acksLeft == 0 {
				return true
			}
			got, err := mergeAck(m.Payload, census)
			if err != nil || got != epoch {
				panic(fmt.Sprintf("engine: coordinator: bad elastic ACK from rank %d for epoch %d (want %d): %v",
					m.Src, got, epoch, err))
			}
			acksLeft--
			if acksLeft == 0 {
				take := min(admit, len(joiners))
				if admit > 0 {
					nextM = append(append([]int(nil), members...), joiners[:take]...)
					sort.Ints(nextM)
					joiners = append([]int(nil), joiners[take:]...)
				}
				noJoiners = admit > 0 && take == 0
				pl := encodeEpochPayload(epoch, nextM, census)
				for r := 0; r < world; r++ {
					et.SendElastic(r, mpi.ElasticEpoch, pl)
				}
				members = nextM
				nextM, admit = nil, 0
			}
		case mpi.ElasticEpoch:
			ep, mems, cen, err := decodeEpochPayload(m.Payload)
			if err != nil {
				panic(fmt.Sprintf("engine: rank %d: %v", n.id, err))
			}
			moved, left := n.applyEpoch(ep, mems, cen, lane)
			// Only rank 0 starts views, so scaling is set only there, and
			// it still describes this epoch: the next view starts only
			// after rank 0 has applied this one.
			if scaling && moved == 0 {
				why := "rebalance moved no tiles"
				if left == 0 {
					why = "no unexecuted tiles at census"
				} else if noJoiners {
					why = "no joiners announced"
				}
				n.noteScaleNoop(why, ep, lane)
			}
		case mpi.ElasticFin:
			n.mu.Lock()
			n.elasticFin = true
			n.mu.Unlock()
			// No view change follows FIN: a leave still waiting for one
			// (more leavers than ExpectLeaves) finishes its own tiles.
			n.releaseHold()
			n.checkFinished()
		}
		return true
	}

	if cfg.JoinRequest {
		et.SendElastic(0, mpi.ElasticJoin, nil)
	}

	// maybeLeave is the zero-work fallback for the voluntary-leave
	// trigger in execTile: a rank that owns no tiles at all (or finished
	// everything it owned before reaching its threshold) never executes
	// another tile, so the ticker fires the request once the rank is
	// locally idle. Without it a tile-less leaver would leave rank 0
	// waiting on ExpectLeaves forever.
	maybeLeave := func() {
		if cfg.LeaveAfterTiles <= 0 {
			return
		}
		n.mu.Lock()
		fire := !n.leaveSent && (n.executed >= cfg.LeaveAfterTiles || n.executed == n.ownedTotal)
		if fire {
			n.leaveSent = true
		}
		n.mu.Unlock()
		if fire {
			et.SendElastic(0, mpi.ElasticLeave, nil)
		}
	}

	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-n.stopElastic:
			return
		case m := <-et.ElasticCh():
			if !handle(m) {
				return
			}
			maybeAct()
		case <-tick.C:
			maybeLeave()
			maybeAct()
		}
	}
}
