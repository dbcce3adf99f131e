package fdp

import (
	"math/rand"
	"testing"

	"github.com/slimio/slimio/internal/bufpool"
	"github.com/slimio/slimio/internal/sim"
)

// Fault-path ownership under GC migration: mixed-lifetime churn with pooled
// payloads forces reclaim to copy live pages, which the FTL does zero-copy —
// Relocate(src, dst) moves the stored segment's reference to the destination
// page, so the source's unmap releases nothing and the destination's erase
// or discard releases it once. Any imbalance shows up here: a missed
// release leaks (InFlight stays positive after teardown), a double release
// panics in bufpool.
func TestGCMigrationPooledOwnership(t *testing.T) {
	f := newTestFTL(t, 8)
	pool := f.arr.Pool()
	rng := rand.New(rand.NewSource(9))
	now := sim.Time(0)
	hot := f.Capacity() / 2
	writes := int(f.Capacity()) * 5
	for i := 0; i < writes; i++ {
		s := pool.Get()
		copy(s.Bytes(), page("m", 128))
		done, err := f.Write(now, rng.Int63n(hot), bufpool.Ref{Seg: s, B: s.Bytes()}, 1)
		if err != nil {
			t.Fatal(err)
		}
		s.Release() // host hands off once the write is durable
		now = done
	}
	s := f.Stats()
	if s.GCCopiedPages == 0 {
		t.Fatal("churn forced no GC copies; the migration path was not exercised")
	}
	f.arr.ReleaseStored()
	if n := pool.InFlight(); n != 0 {
		t.Fatalf("%d segments in flight after GC-heavy run + teardown", n)
	}
}
