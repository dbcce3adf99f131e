package slimio_test

import (
	"fmt"
	"testing"

	slimio "github.com/slimio/slimio"
)

// TestPublicAPISystem exercises the package façade end to end: build a
// system, serve traffic, snapshot, and check invariants through exported
// names only.
func TestPublicAPISystem(t *testing.T) {
	sys, err := slimio.NewSystem(slimio.SystemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sys.Sim.Spawn("client", func(env *slimio.Env) {
		for i := 0; i < 200; i++ {
			if err := sys.DB.Set(env, fmt.Sprintf("k%03d", i), []byte("v")); err != nil {
				t.Error(err)
				return
			}
		}
		got, err := sys.DB.Get(env, "k007")
		if err != nil || string(got) != "v" {
			t.Errorf("get = %q, %v", got, err)
		}
		trig := sys.DB.TriggerSnapshot(slimio.OnDemandSnapshot)
		trig.Reply.Wait(env)
		sys.DB.WaitNoSnapshot(env)
		sys.DB.Shutdown(env)
	})
	sys.Sim.Run()

	if n := len(sys.DB.Stats().Snapshots); n != 1 {
		t.Fatalf("snapshots = %d", n)
	}
	if waf := sys.Device.Stats().WAF(); waf != 1.0 {
		t.Fatalf("WAF = %v", waf)
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestPublicAPISystemRecyclesPool overwrites a small keyspace with 2.5x the
// device's capacity, so the FTL must reclaim: the façade's stack (the
// evaluation's own, clock and pool wired by exp.BuildStack) then recycles the
// invalidated pages' segments instead of carving new ones, and Close finds
// the data plane quiescent.
func TestPublicAPISystemRecyclesPool(t *testing.T) {
	sys, err := slimio.NewSystem(slimio.SystemConfig{DB: slimio.DBConfig{WALSnapshotTrigger: 4 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 4096)
	for i := range val {
		val[i] = byte(i * 7)
	}
	sys.Sim.Spawn("client", func(env *slimio.Env) {
		defer sys.DB.Shutdown(env)
		for i := 0; i < 40000; i++ {
			if err := sys.DB.Set(env, fmt.Sprintf("k%03d", i%200), val); err != nil {
				t.Error(err)
				return
			}
		}
		sys.DB.WaitNoSnapshot(env)
	})
	sys.Sim.Run()

	st := sys.Device.Stats()
	if st.GCRuns == 0 {
		t.Fatalf("no reclaim after %d host pages on a %d-page device", st.HostWritePages, sys.Device.Capacity())
	}
	// 1222 segments at this workload, for 40430 pages written.
	if got := int64(sys.Device.FTL().Array().Pool().Allocated()); got > st.HostWritePages/10 {
		t.Errorf("pool carved %d segments for %d host pages: reclaimed pages are not recycled", got, st.HostWritePages)
	}
	if err := sys.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}

// ExampleNewSystem is the doc example for the package front page.
func ExampleNewSystem() {
	sys, err := slimio.NewSystem(slimio.SystemConfig{DeviceBytes: 32 << 20})
	if err != nil {
		panic(err)
	}
	sys.Sim.Spawn("client", func(env *slimio.Env) {
		_ = sys.DB.Set(env, "answer", []byte("42"))
		v, _ := sys.DB.Get(env, "answer")
		fmt.Printf("answer = %s\n", v)
		sys.DB.Shutdown(env)
	})
	sys.Sim.Run()
	if err := sys.Close(); err != nil {
		panic(err)
	}
	// Output: answer = 42
}
