package core

import (
	"runtime"
	"testing"

	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/wal"
)

// TestHotPathAllocBudgets pins the Always-Log step's allocations on the
// SlimIO backend: one record drained from the engine's WAL buffer,
// WALAppend, WALSync. Ring commands reuse ring-owned slots, and the page
// list and the in-flight set reuse their backing arrays, so the backend
// itself allocates nothing: what is left is the drained chain's segment list
// and the fresh pool pages the log keeps on the device (12 allocations per
// step while every command allocated its SQE, signal, CQE, post closure and
// page list). Counted as the sim
// package counts its hot paths: the allocations of the run, setup included,
// divided down to whole allocations per step.
func TestHotPathAllocBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts over a long run are not a -short test")
	}
	if raceEnabled {
		t.Skip("race builds record bufpool acquire/release sites, which allocates")
	}
	const ops, budget = 2000, 4
	eng := sim.NewEngine()
	dev := newFDPDevice(t, 128)
	dev.FTL().Array().SetClock(eng)
	be, err := New(eng, dev, Config{MetaPages: 8, SlotPages: 96})
	if err != nil {
		t.Fatal(err)
	}
	buf := wal.NewBuffer(dev.FTL().Array().Pool())
	value := make([]byte, 400)
	eng.Spawn("main", func(env *sim.Env) {
		for i := 0; i < ops; i++ {
			buf.AppendString(wal.OpSet, "00000001", value)
			if err := be.WALAppend(env, buf.Drain()); err != nil {
				t.Error(err)
				return
			}
			if err := be.WALSync(env); err != nil {
				t.Error(err)
				return
			}
		}
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	eng.Run()
	runtime.ReadMemStats(&after)
	t.Logf("WALAppend+WALSync: %.3f allocs/op", float64(after.Mallocs-before.Mallocs)/ops)
	if got := (after.Mallocs - before.Mallocs) / ops; got > budget {
		t.Errorf("WALAppend+WALSync: %d allocs/op, budget %d (%d B/op)", got, budget, (after.TotalAlloc-before.TotalAlloc)/ops)
	}
}
