// The state-movement layer: how a rank's live frontier (its pending
// and started tiles with their buffered dependence edges, the
// O(n^{d-1}) state of Section V-B) is walked, framed, parsed and fed
// back into a rank. Checkpoints (DPCKPT1) and elastic migration blobs
// (DPMIG01) are the same tile records behind different headers; see
// "Frontier format" in docs/FAULT_TOLERANCE.md.

package engine

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"dpgen/internal/mpi"
	"dpgen/internal/obs"
)

// encodeFrame builds one blob: magic, the format's header words (put
// by header), the tile records, and an FNV-1a checksum of everything
// before it. Every field is a little-endian 64-bit word.
func encodeFrame(magic string, header func(put func(uint64)), tiles []*pendTile) []byte {
	b := append(make([]byte, 0, 64), magic...)
	put := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	header(put)
	put(uint64(len(tiles)))
	for _, p := range tiles {
		for _, c := range p.tile {
			put(uint64(c))
		}
		put(uint64(len(p.edges)))
		for _, ed := range p.edges {
			put(uint64(ed.dep))
			put(uint64(len(ed.data)))
			for _, v := range ed.data {
				put(math.Float64bits(v))
			}
		}
	}
	h := fnv.New64a()
	h.Write(b)
	put(h.Sum64())
	return b
}

// frameReader is a bounds-checked cursor over a frame body: the first
// overrun or implausible count latches err, and every later read
// returns zero.
type frameReader struct {
	b   []byte
	err error
}

func (r *frameReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.err = fmt.Errorf("truncated")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *frameReader) i64() int64   { return int64(r.u64()) }
func (r *frameReader) f64() float64 { return math.Float64frombits(r.u64()) }

// count reads an element count, rejecting one larger than the bytes
// left (every element takes at least one); a rejected count reads as
// zero.
func (r *frameReader) count() int {
	v := r.i64()
	if r.err == nil && (v < 0 || v > int64(len(r.b))) {
		r.err = fmt.Errorf("corrupt count %d", v)
	}
	if r.err != nil {
		return 0
	}
	return int(v)
}

// decodeFrame checks blob's magic and checksum, lets header parse the
// format's header and report the tile dimensionality, and parses the
// tile records. Edge data lands in pooled buffers owned by the
// returned tiles; absorb hands them on to deliver. kind names the
// format in errors.
func decodeFrame(blob []byte, magic, kind string, header func(r *frameReader) (d int)) ([]*pendTile, error) {
	if len(blob) < len(magic)+8 || string(blob[:len(magic)]) != magic {
		return nil, fmt.Errorf("not a %s", kind)
	}
	body, sum := blob[:len(blob)-8], binary.LittleEndian.Uint64(blob[len(blob)-8:])
	h := fnv.New64a()
	h.Write(body)
	if h.Sum64() != sum {
		return nil, fmt.Errorf("%s failed its checksum", kind)
	}
	r := &frameReader{b: body[len(magic):]}
	d := header(r)
	nt := r.count()
	tiles := make([]*pendTile, 0, nt)
	for i := 0; i < nt && r.err == nil; i++ {
		if d < 0 || d > len(r.b)/8 {
			r.err = fmt.Errorf("corrupt dimension %d", d)
			break
		}
		p := &pendTile{tile: make([]int64, d)}
		for k := range p.tile {
			p.tile[k] = r.i64()
		}
		for j, ne := 0, r.count(); j < ne && r.err == nil; j++ {
			dep := int(r.i64())
			data := mpi.GetData(r.count())
			for v := range data {
				data[v] = r.f64()
			}
			p.edges = append(p.edges, edge{dep: dep, data: data})
		}
		tiles = append(tiles, p)
	}
	if r.err != nil {
		return nil, fmt.Errorf("decode %s: %w", kind, r.err)
	}
	return tiles, nil
}

// eachLive visits the rank's live frontier, the tiles a checkpoint
// records and a view change migrates: pending tiles (dependences still
// missing), then started tiles (complete, not yet marked executed).
// visit returns true to take the tile out of its table. The caller
// holds stripes[0].mu, the one stripe frontier tracking runs on.
func (n *node) eachLive(visit func(p *pendTile, started bool) (take bool)) {
	st0 := &n.stripes[0]
	for k, p := range st0.pending {
		if visit(p, false) {
			delete(st0.pending, k)
			n.pendingTiles.Add(-1)
		}
	}
	for k, p := range n.started {
		if visit(p, true) {
			delete(n.started, k)
		}
	}
}

// absorb feeds decoded frontier tiles into this rank. A tile with
// buffered edges is rebuilt by re-delivering them through deliver, so
// the duplicate filter turns any edge the rank already holds into a
// counted no-op; a tile without edges is an initial tile, which no
// producer will ever feed, and goes to the seeder. Returns the number
// of edges delivered.
func (n *node) absorb(tiles []*pendTile, lane *obs.Lane, ds *delivState) (edges int64) {
	for _, t := range tiles {
		if len(t.edges) == 0 {
			n.seed(t.tile, lane)
			continue
		}
		for _, ed := range t.edges {
			n.deliver(t.tile, ed.dep, ed.data, false, lane, ds)
			edges++
		}
	}
	return edges
}

// seed enqueues a tile that needs no edge: an initial tile at run
// start, or one migrated in by a view change. Under frontier tracking
// (checkpoints or elastic membership) a tile this rank already
// executed or started is skipped, and the seeded tile joins the
// started map so checkpoints and migration see it; other runs take no
// lock here.
func (n *node) seed(t []int64, lane *obs.Lane) {
	e := n.eng
	st0 := &n.stripes[0]
	var ik uint64
	if n.ft {
		ik = e.intKey(t)
		st0.mu.Lock()
		_, done := n.executedSet[ik]
		if _, started := n.started[ik]; started {
			done = true
		}
		if done {
			st0.mu.Unlock()
			return
		}
	}
	p := &pendTile{
		tile: append([]int64(nil), t...),
		key:  make([]int64, len(e.keyDims)),
		seq:  n.seqA.Add(1),
	}
	e.makeKey(p.tile, p.key)
	p.level = -sum64(p.key)
	p.group = n.shardOf(p.tile)
	if n.ft {
		n.started[ik] = p
		st0.mu.Unlock()
	}
	n.enqueue(p, lane)
}

// quiescent reports whether the transport has no unacknowledged sends,
// so every edge this rank issued has been delivered. It is the cut
// condition of both a checkpoint and a view change's ACK. Transports
// without the PendingSends method (the in-memory communicator, whose
// deliveries are synchronous) are always quiescent.
func (n *node) quiescent() bool {
	q, ok := n.rank.(interface{ PendingSends() int })
	return !ok || q.PendingSends() == 0
}
