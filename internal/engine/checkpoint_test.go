package engine

import (
	"encoding/binary"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestCheckpointRoundtrip(t *testing.T) {
	want := &checkpoint{
		rank: 1, nodes: 2, d: 2, nd: 3,
		params:       []int64{64, 64},
		ownedTotal:   40,
		executed:     17,
		goalSet:      true,
		goalVal:      3.25,
		maxSet:       true,
		maxVal:       9.5,
		executedKeys: []uint64{7, 11, 42},
		tiles: []*pendTile{
			{tile: []int64{3, 5}, edges: []edge{
				{dep: 0, data: []float64{1, 2.5}},
				{dep: 2, data: []float64{-4}},
			}},
			{tile: []int64{0, 9}, edges: []edge{
				{dep: 1, data: []float64{0.125, 8, 16}},
			}},
		},
	}
	path := CheckpointPath(t.TempDir(), want.rank)
	if err := writeCheckpointFile(path, want.encode()); err != nil {
		t.Fatal(err)
	}
	got, err := loadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.rank != want.rank || got.nodes != want.nodes || got.d != want.d || got.nd != want.nd ||
		got.ownedTotal != want.ownedTotal || got.executed != want.executed ||
		got.goalSet != want.goalSet || got.goalVal != want.goalVal ||
		got.maxSet != want.maxSet || got.maxVal != want.maxVal {
		t.Fatalf("header mismatch: got %+v want %+v", got, want)
	}
	if len(got.params) != 2 || got.params[0] != 64 || got.params[1] != 64 {
		t.Errorf("params = %v", got.params)
	}
	if len(got.executedKeys) != 3 || got.executedKeys[2] != 42 {
		t.Errorf("executedKeys = %v", got.executedKeys)
	}
	if len(got.tiles) != 2 {
		t.Fatalf("tiles = %d, want 2", len(got.tiles))
	}
	t0 := got.tiles[0]
	if t0.tile[0] != 3 || t0.tile[1] != 5 || len(t0.edges) != 2 ||
		t0.edges[0].dep != 0 || t0.edges[0].data[1] != 2.5 ||
		t0.edges[1].dep != 2 || t0.edges[1].data[0] != -4 {
		t.Errorf("tile 0 = %+v", t0)
	}
	if got.tiles[1].edges[0].data[2] != 16 {
		t.Errorf("tile 1 = %+v", got.tiles[1])
	}

	// The atomic write must not leave its temp file behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".ckpt-") {
			t.Errorf("stray temp file %s after writeCheckpointFile", e.Name())
		}
	}
}

// TestCheckpointMissingFile: a rank with no snapshot resumes from
// scratch, so a missing file is (nil, nil), not an error.
func TestCheckpointMissingFile(t *testing.T) {
	ck, err := loadCheckpoint(CheckpointPath(t.TempDir(), 0))
	if ck != nil || err != nil {
		t.Fatalf("missing checkpoint = (%v, %v), want (nil, nil)", ck, err)
	}
}

// sealWords frames raw 64-bit words the way the frontier codec does
// (magic, words, FNV-1a checksum), so a test can put any value into a
// checksummed body.
func sealWords(magic string, words ...uint64) []byte {
	b := []byte(magic)
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	h := fnv.New64a()
	h.Write(b)
	return binary.LittleEndian.AppendUint64(b, h.Sum64())
}

// TestCheckpointRejectsCorruption: checkpoint files and migration
// blobs share one decoder, and both reject every kind of damage with
// an error rather than a crash or a silent misread.
func TestCheckpointRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	ckpt := (&checkpoint{rank: 0, nodes: 1, d: 1, nd: 1, params: []int64{8}}).encode()
	mig := migrationBlob(3, []*pendTile{{tile: []int64{2}, edges: []edge{{dep: 0, data: []float64{1.5}}}}})
	loadFile := func(name string, blob []byte) error {
		path := filepath.Join(dir, name+".ckpt")
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := loadCheckpoint(path)
		return err
	}
	readMig := func(_ string, blob []byte) error {
		_, err := readMigrationBlob(blob, 1)
		return err
	}

	cases := []struct {
		name    string
		blob    []byte
		decode  func(string, []byte) error
		mutate  func([]byte) []byte
		errPart string
	}{
		{"bad-magic", ckpt, loadFile, func(b []byte) []byte { b[0] = 'X'; return b }, "not a checkpoint"},
		{"flipped-bit", ckpt, loadFile, func(b []byte) []byte { b[len(ckptMagic)+3] ^= 0x40; return b }, "checksum"},
		{"truncated-tail", ckpt, loadFile, func(b []byte) []byte { return b[:len(b)-9] }, "checksum"},
		{"too-short", ckpt, loadFile, func(b []byte) []byte { return b[:4] }, "not a checkpoint"},
		// An absurd element count inside a checksummed body must still
		// be rejected by the bounds-checked reader, not crash the decoder.
		{"oversized-count", ckpt, loadFile, func([]byte) []byte {
			return sealWords(ckptMagic, 0, 0, 0, 0, 1<<40) // params count
		}, "corrupt count"},
		{"migration-bad-magic", mig, readMig, func(b []byte) []byte { b[2] = 'X'; return b }, "not a migration blob"},
		{"migration-flipped-bit", mig, readMig, func(b []byte) []byte { b[len(migMagic)+20] ^= 0x01; return b }, "checksum"},
		{"migration-truncated", mig, readMig, func(b []byte) []byte { return b[:len(b)-5] }, "checksum"},
		{"migration-oversized-count", mig, readMig, func([]byte) []byte {
			return sealWords(migMagic, 3, 1<<40) // epoch, tile count
		}, "corrupt count"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			err := tc.decode(tc.name, tc.mutate(append([]byte(nil), tc.blob...)))
			if err == nil {
				t.Fatal("corrupt blob decoded")
			}
			if !strings.Contains(err.Error(), tc.errPart) {
				t.Errorf("error %q lacks %q", err, tc.errPart)
			}
		})
	}
}

// TestAbsorbTwiceIsIdempotent: absorbing the same frontier a second
// time (a replayed migration blob, or a resume whose checkpoint edges
// also arrive again from peers) leaves the pending table, the started
// set and the ready queues exactly as the first pass left them, and
// the duplicate filter counts every edge of the second pass.
func TestAbsorbTwiceIsIdempotent(t *testing.T) {
	tl := bandit2Tiling(t, 4, nil)
	e := &engine{tl: tl, params: []int64{12}, kernel: bandit2Kernel,
		cfg: Config{Checkpoint: CheckpointConfig{Dir: t.TempDir()}}.withDefaults()}
	e.buildKeyDims()
	if err := e.buildIntKeys(); err != nil {
		t.Fatal(err)
	}
	n := newNode2ForTest(e)

	// One tile of each frontier kind: a pending tile missing one of its
	// edges, a tile its edges complete (started and queued), and an
	// initial tile with no edges (seeded).
	probe := tl.NewProbe(e.params)
	edgesFor := func(k int) []edge {
		eds := make([]edge, k)
		for j := range eds {
			eds[j] = edge{dep: j, data: []float64{float64(j), 0.5}}
		}
		return eds
	}
	var partial, complete, initial *pendTile
	lo, hi := tl.TileBounds(e.params)
	for tile := append([]int64(nil), lo...); tile != nil; tile = nextInBox(tile, lo, hi) {
		if !probe.InSpace(tile) {
			continue
		}
		c := probe.DepCount(tile)
		p := &pendTile{tile: append([]int64(nil), tile...)}
		switch {
		case c == 0 && initial == nil:
			initial = p
		case c >= 2 && partial == nil:
			p.edges = edgesFor(c - 1)
			partial = p
		case c >= 1 && complete == nil:
			p.edges = edgesFor(c)
			complete = p
		}
	}
	if partial == nil || complete == nil || initial == nil {
		t.Fatalf("tile space lacks a frontier kind: partial %v complete %v initial %v", partial, complete, initial)
	}
	nedges := int64(len(partial.edges) + len(complete.edges))
	blob := migrationBlob(1, []*pendTile{partial, complete, initial})
	absorb := func() int64 {
		tiles, err := readMigrationBlob(blob, len(tl.Spec.Vars))
		if err != nil {
			t.Fatal(err)
		}
		return n.absorb(tiles, nil, newDelivState(e))
	}
	type state struct {
		pending       map[uint64]int // key -> buffered edges
		started       int
		queued, edges int64
	}
	observe := func() state {
		s := state{pending: map[uint64]int{}, started: len(n.started), queued: n.qlen.Load(), edges: n.pendingEdges.Load()}
		for k, p := range n.stripes[0].pending {
			s.pending[k] = len(p.edges)
		}
		return s
	}

	if got := absorb(); got != nedges {
		t.Fatalf("first pass delivered %d edges, want %d", got, nedges)
	}
	first := observe()
	if len(first.pending) != 1 || first.started != 2 || first.queued != 2 || first.edges != nedges {
		t.Fatalf("first pass: %+v, want 1 pending tile, 2 started, 2 queued, %d buffered edges", first, nedges)
	}
	if absorb(); n.st.EdgesDroppedDup != nedges {
		t.Errorf("second pass dropped %d duplicate edges, want all %d", n.st.EdgesDroppedDup, nedges)
	}
	if second := observe(); !reflect.DeepEqual(second, first) {
		t.Errorf("second pass changed the frontier: %+v, was %+v", second, first)
	}
}

// nextInBox advances t to the next point of the box [lo, hi] in
// odometer order, returning nil after the last one.
func nextInBox(t, lo, hi []int64) []int64 {
	for k := range t {
		if t[k] < hi[k] {
			t[k]++
			return t
		}
		t[k] = lo[k]
	}
	return nil
}
