package kernelio

import (
	"bytes"
	"testing"

	"github.com/slimio/slimio/internal/sim"
)

// Writeback hands the device a reference to the cache page's own segment, so
// the bytes behind a flushed page are shared with NAND and must never change
// in place: a later write takes a private copy first. The device therefore
// keeps exactly what the last fsync gave it — an overwrite that dies with the
// cache leaves the first version byte for byte, and one that is fsynced too
// lands as the merged page.
func TestWritebackSharesAndWritersCopy(t *testing.T) {
	for _, tc := range []struct {
		name       string
		syncSecond bool
	}{
		{"overwrite dies with the cache", false},
		{"overwrite is fsynced", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, _, fs := newRemountRig(t)
			ps := int(fs.pageSize())
			first := bytes.Repeat([]byte("1"), ps+ps/2) // a full page and a partial one
			patch := bytes.Repeat([]byte("2"), ps)      // straddles both
			patchOff := ps / 4
			merged := append([]byte(nil), first...)
			copy(merged[patchOff:], patch)

			eng.Spawn("writer", func(env *sim.Env) {
				f, err := fs.Create("f.log")
				if err != nil {
					t.Error(err)
					return
				}
				if err := f.Write(env, 0, first); err != nil {
					t.Error(err)
					return
				}
				if err := f.Fsync(env); err != nil {
					t.Error(err)
					return
				}
				flushed := f.pages[0].seg
				if !f.pages[0].shared || flushed.Refs() != 2 {
					t.Errorf("after fsync: shared = %v, refs = %d; want the cache and NAND holding one segment", f.pages[0].shared, flushed.Refs())
				}
				if err := f.Write(env, int64(patchOff), patch); err != nil {
					t.Error(err)
					return
				}
				if pg := f.pages[0]; pg.seg == flushed || pg.shared || pg.seg.Refs() != 1 || flushed.Refs() != 1 {
					t.Errorf("after overwrite: the writer did not move to a private copy (same seg = %v, shared = %v, refs new/old = %d/%d)",
						pg.seg == flushed, pg.shared, pg.seg.Refs(), flushed.Refs())
				}
				if got, err := readAt(env, f, 0, len(merged)); err != nil || !bytes.Equal(got, merged) {
					t.Errorf("the cache does not show the overwrite (err = %v)", err)
				}
				if tc.syncSecond {
					if err := f.Fsync(env); err != nil {
						t.Error(err)
					}
				}
			})
			eng.Run()
			if t.Failed() {
				return
			}

			fs.sched.DropPending()
			eng2 := sim.NewEngine()
			nfs := fs.Remount(eng2)
			want := first
			if tc.syncSecond {
				want = merged
			}
			eng2.Spawn("reader", func(env *sim.Env) {
				f, err := nfs.Open("f.log")
				if err != nil {
					t.Error(err)
					return
				}
				got, err := readAt(env, f, 0, len(want))
				if err != nil {
					t.Errorf("read after remount: %v", err)
					return
				}
				if !bytes.Equal(got, want) {
					t.Error("the device does not hold what the last fsync wrote, byte for byte")
				}
			})
			eng2.Run()

			fs.Close()
			nfs.Close()
			fs.dev.FTL().Array().ReleaseStored()
			if n := fs.pool.InFlight(); n != 0 {
				t.Fatalf("%d segments in flight after teardown", n)
			}
		})
	}
}

// Close drops only the filesystem's own references. With every kind of page
// present — shared with NAND, re-dirtied onto a private copy, and frozen in
// the block scheduler mid-fsync as at a power cut — the pool must drain to
// zero once the array has released what it stores, and nothing may be
// released twice (bufpool panics on that).
func TestCloseWithSharedDirtyAndInflightPages(t *testing.T) {
	eng, dev, fs := newRemountRig(t)
	ps := int(fs.pageSize())
	setup := false
	eng.Spawn("writer", func(env *sim.Env) {
		f, err := fs.Create("f.log")
		if err != nil {
			t.Error(err)
			return
		}
		g, err := fs.Create("g.log")
		if err != nil {
			t.Error(err)
			return
		}
		for _, file := range []*File{f, g} {
			if err := file.Write(env, 0, bytes.Repeat([]byte("a"), 4*ps)); err != nil {
				t.Error(err)
				return
			}
			if err := file.Fsync(env); err != nil { // pages 0-3 shared with NAND
				t.Error(err)
				return
			}
			// Pages 1-2 move to private copies and are dirty again.
			if err := file.Write(env, int64(ps), bytes.Repeat([]byte("b"), ps+ps/2)); err != nil {
				t.Error(err)
				return
			}
		}
		setup = true
		if err := f.Fsync(env); err != nil { // never returns: the engine stops under it
			t.Error(err)
		}
	})
	// Freeze the run the moment the last fsync's request sits in the block
	// scheduler (staged or picked, not yet consumed by the device).
	for now := sim.Time(0); !setup || len(fs.sched.live) == 0; {
		if now > sim.Time(sim.Second) {
			t.Fatal("the last fsync never reached the block scheduler")
		}
		now = now.Add(100 * sim.Nanosecond)
		eng.RunUntil(now)
	}
	var shared, dirty, inflight int
	for _, name := range []string{"f.log", "g.log"} {
		for _, pg := range fs.files[name].pages {
			switch {
			case pg.inflight:
				inflight++
			case pg.dirty:
				dirty++
			case pg.shared:
				shared++
			}
		}
	}
	if shared != 4 || dirty != 2 || inflight != 2 {
		t.Fatalf("rig built %d shared, %d dirty and %d in-flight pages, want 4, 2 and 2", shared, dirty, inflight)
	}

	eng.Shutdown()
	fs.Close()
	dev.FTL().Array().ReleaseStored()
	if n := fs.pool.InFlight(); n != 0 {
		t.Fatalf("%d segments in flight after Close + ReleaseStored", n)
	}
}

// A new cache page clears only what its first write or device read does not
// cover — and that must still be everything else: a recycled segment's stale
// bytes around a partial write would otherwise be flushed as page content.
func TestNewCachePageZeroesAroundData(t *testing.T) {
	_, _, fs := newRemountRig(t)
	ps := int(fs.pageSize())
	for _, tc := range []struct{ off, n int }{
		{0, 0}, {0, 10}, {7, 10}, {ps - 3, 3}, {ps - 3, 50}, {0, ps}, {0, ps + 9},
	} {
		stale := fs.pool.Get()
		for i := range stale.Bytes() {
			stale.Bytes()[i] = 0xFF
		}
		stale.Release() // next Get recycles it, 0xFF and all
		src := bytes.Repeat([]byte{0xAB}, tc.n)
		pg, n := fs.newCachePage(int64(tc.off), src)
		if pg.seg != stale {
			t.Fatal("rig: the pool did not recycle the stale segment")
		}
		wantN := min(tc.n, ps-tc.off)
		if n != wantN {
			t.Errorf("off %d len %d: copied %d bytes, want %d", tc.off, tc.n, n, wantN)
		}
		want := make([]byte, ps)
		copy(want[tc.off:], src)
		if !bytes.Equal(pg.data, want) {
			t.Errorf("off %d len %d: page is not data surrounded by zeros", tc.off, tc.n)
		}
		pg.free()
	}
}
