package kernelio

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/slimio/slimio/internal/nand"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/ssd"
)

func newRemountRig(t *testing.T) (*sim.Engine, *ssd.Device, *Filesystem) {
	t.Helper()
	geo := nand.Geometry{Channels: 2, DiesPerChannel: 2, BlocksPerDie: 16, PagesPerBlock: 8, PageSize: 512}
	eng := sim.NewEngine()
	dev := newConvDevice(t, geo)
	return eng, dev, NewFilesystem(eng, dev, F2FS(), SchedNone, DefaultCosts())
}

// Remount models a crash: a new filesystem over the same device with the
// journaled file table but a cold cache. Fsynced bytes must read back; dirty
// bytes that never hit the device must come back as zeros, not garbage and
// not an I/O error.
func TestRemountLosesDirtyKeepsDurable(t *testing.T) {
	eng, _, fs := newRemountRig(t)
	durable := bytes.Repeat([]byte("D"), 1500) // ~3 pages
	dirty := bytes.Repeat([]byte("x"), 900)
	eng.Spawn("writer", func(env *sim.Env) {
		f, err := fs.Create("f.log")
		if err != nil {
			t.Error(err)
			return
		}
		if err := f.Append(env, durable); err != nil {
			t.Error(err)
			return
		}
		if err := f.Fsync(env); err != nil {
			t.Error(err)
			return
		}
		// Never synced: dies with the cache at the crash.
		if err := f.Append(env, dirty); err != nil {
			t.Error(err)
		}
	})
	eng.Run()

	eng2 := sim.NewEngine()
	nfs := fs.Remount(eng2)
	if !nfs.CrashMounted() {
		t.Fatal("remounted filesystem does not report CrashMounted")
	}
	if fs.CrashMounted() {
		t.Fatal("live filesystem reports CrashMounted")
	}
	eng2.Spawn("reader", func(env *sim.Env) {
		f, err := nfs.Open("f.log")
		if err != nil {
			t.Error(err)
			return
		}
		if f.Size() != int64(len(durable)+len(dirty)) {
			t.Errorf("size = %d, want %d (journaled metadata survives)", f.Size(), len(durable)+len(dirty))
			return
		}
		got, err := readAt(env, f, 0, int(f.Size()))
		if err != nil {
			t.Errorf("read after remount: %v", err)
			return
		}
		if !bytes.Equal(got[:len(durable)], durable) {
			t.Error("fsynced bytes did not survive the remount")
		}
		// The unsynced range may be partially present (writeback races the
		// crash) but never garbage: each byte is either the written value or
		// zero from an unwritten page.
		for i, b := range got[len(durable):] {
			if b != 0 && b != 'x' {
				t.Errorf("unsynced byte %d = %#x, want 0 or the written value", i, b)
				return
			}
		}
	})
	eng2.Run()
}

// The file table (names, sizes, extents) is journaled metadata: every file,
// including ones never fsynced, must still be listed after a remount.
func TestRemountKeepsFileTable(t *testing.T) {
	eng, _, fs := newRemountRig(t)
	eng.Spawn("writer", func(env *sim.Env) {
		for i := 0; i < 3; i++ {
			f, err := fs.Create(fmt.Sprintf("seg.%d", i))
			if err != nil {
				t.Error(err)
				return
			}
			if err := f.Append(env, []byte("data")); err != nil {
				t.Error(err)
				return
			}
		}
		if err := fs.Delete(env, "seg.1"); err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	nfs := fs.Remount(sim.NewEngine())
	names := nfs.Names()
	if len(names) != 2 || names[0] != "seg.0" || names[1] != "seg.2" {
		t.Fatalf("names after remount = %v, want [seg.0 seg.2]", names)
	}
}

// Truncate shrinks the logical size and drops cached pages past the cut, so
// appends resume at the durable prefix (the Redis AOF-truncation flow).
func TestTruncateThenAppendContinues(t *testing.T) {
	eng, _, fs := newRemountRig(t)
	eng.Spawn("writer", func(env *sim.Env) {
		f, err := fs.Create("aof")
		if err != nil {
			t.Error(err)
			return
		}
		if err := f.Append(env, bytes.Repeat([]byte("A"), 1000)); err != nil {
			t.Error(err)
			return
		}
		f.Truncate(2000) // no-op past the end
		if f.Size() != 1000 {
			t.Errorf("grow-truncate changed size to %d", f.Size())
		}
		f.Truncate(600)
		if f.Size() != 600 {
			t.Errorf("size after truncate = %d, want 600", f.Size())
			return
		}
		if err := f.Append(env, bytes.Repeat([]byte("B"), 100)); err != nil {
			t.Error(err)
			return
		}
		got, err := readAt(env, f, 0, int(f.Size()))
		if err != nil {
			t.Error(err)
			return
		}
		want := append(bytes.Repeat([]byte("A"), 600), bytes.Repeat([]byte("B"), 100)...)
		if !bytes.Equal(got, want) {
			t.Error("append after truncate did not resume at the cut")
		}
	})
	eng.Run()
}
