package dpfuzz

import (
	"fmt"
	"testing"
)

// TestElasticBitIdentical pushes a handful of generated specs through
// the elastic-membership differential: a three-rank TCP mesh that
// starts with two members and changes membership mid-run (one join
// admitted, one voluntary leave granted) and must stay bit-identical to
// the independent serial
// reference on every rank. Skipped in -short mode — each seed is a
// full multi-epoch view-change and migration cycle.
func TestElasticBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping elastic-membership soak in -short mode")
	}
	for _, seed := range []uint64{3, 7, 19} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			if err := CheckElastic(Generate(seed)); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
		})
	}
}
