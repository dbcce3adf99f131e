package kernelio

import (
	"bytes"
	"testing"

	"github.com/slimio/slimio/internal/bufpool"
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

// A read miss shares each full pooled page the device stores instead of
// copying it: the cache retains the NAND array's segment, marked shared, so a
// cold read takes no pool segment and a later write moves to a private copy,
// leaving the device's bytes alone. A short stored page, a page remapped while
// the read was in flight and a hole on a crash-mounted filesystem are still
// copied into private pages holding what the read returned.
func TestReadFillSharesDevicePages(t *testing.T) {
	eng, dev, fs := newRemountRig(t)
	ps := int(fs.pageSize())
	pool := fs.pool
	payload := make([]byte, 3*ps)
	for i := range payload {
		payload[i] = byte(i*13 + 5)
	}
	short := bytes.Repeat([]byte("s"), ps/4)
	lpa := func(f *File, idx int64) int64 { return f.extents[0] + idx } // one extent each
	// private checks that file page idx is a private page holding want.
	private := func(f *File, idx int64, want []byte) {
		t.Helper()
		pg := f.pages[idx]
		if pg.shared || pg.seg == dev.StoredRef(lpa(f, idx)).Seg || pg.seg.Refs() != 1 {
			t.Errorf("%s page %d: shared = %v, refs = %d; want a private copy", f.name, idx, pg.shared, pg.seg.Refs())
		}
		if !bytes.Equal(pg.data, want) {
			t.Errorf("%s page %d does not hold what the read returned", f.name, idx)
		}
	}

	var full, shortF, moved *File
	eng.Spawn("writer", func(env *sim.Env) {
		for _, name := range []string{"full", "short", "moved"} {
			f, err := fs.Create(name)
			if err == nil {
				err = f.Write(env, 0, payload[:ps])
			}
			if err == nil && name == "full" {
				err = f.Write(env, int64(ps), payload[ps:])
			}
			if err == nil {
				err = f.Fsync(env)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
		full, shortF, moved = fs.files["full"], fs.files["short"], fs.files["moved"]
		// The device stores a short page under "short" (a borrowed write is
		// stored as a short pooled page).
		if err := dev.Write(env, lpa(shortF, 0), []bufpool.Ref{bufpool.Borrowed(short)}, 0); err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	if t.Failed() {
		return
	}
	fs.DropCaches()

	eng.Spawn("reader", func(env *sim.Env) {
		alloc, inFlight := pool.Allocated(), pool.InFlight()
		if got, err := readAt(env, full, 0, len(payload)); err != nil || !bytes.Equal(got, payload) {
			t.Errorf("cold read of full pages: err = %v, bytes match = %v", err, bytes.Equal(got, payload))
			return
		}
		if pool.Allocated() != alloc || pool.InFlight() != inFlight {
			t.Errorf("a cold read of full pages took pool segments: allocated %+d, in flight %+d",
				pool.Allocated()-alloc, pool.InFlight()-inFlight)
		}
		for i := range 3 {
			pg, stored := full.pages[i], dev.StoredRef(lpa(full, int64(i)))
			if pg.seg != stored.Seg || !pg.shared || pg.seg.Refs() != 2 || &pg.data[0] != &stored.B[0] {
				t.Errorf("page %d: cache and NAND do not share one segment (same = %v, shared = %v, refs = %d)",
					i, pg.seg == stored.Seg, pg.shared, pg.seg.Refs())
			}
		}

		// A write into a shared page moves it to a private copy.
		stored := full.pages[1].seg
		patch := []byte("patched")
		if err := full.Write(env, int64(ps+10), patch); err != nil {
			t.Error(err)
			return
		}
		if pg := full.pages[1]; pg.seg == stored || pg.shared || stored.Refs() != 1 {
			t.Errorf("the write did not unshare (same seg = %v, shared = %v, NAND refs = %d)", pg.seg == stored, pg.shared, stored.Refs())
		}
		if !bytes.Equal(dev.StoredRef(lpa(full, 1)).B, payload[ps:2*ps]) {
			t.Error("a write into a cached page changed the device's stored bytes")
		}
		merged := append([]byte(nil), payload...)
		copy(merged[ps+10:], patch)
		if got, err := readAt(env, full, 0, len(merged)); err != nil || !bytes.Equal(got, merged) {
			t.Errorf("the cache does not show the write (err = %v)", err)
		}

		// A short stored page is copied into a zero-padded page.
		if _, err := shortF.Read(env, nil, 0, ps); err != nil {
			t.Error(err)
			return
		}
		private(shortF, 0, append(append([]byte(nil), short...), make([]byte, ps-len(short))...))

		// A page the LPA stops mapping to while the read is in flight is
		// copied as read, not taken from the page that replaced it.
		misses := fs.Stats().CacheMisses
		env.Spawn("overwriter", func(env *sim.Env) {
			for fs.Stats().CacheMisses == misses { // until the read is on the device
				env.Sleep(100 * sim.Nanosecond)
			}
			if err := dev.Write(env, lpa(moved, 0), []bufpool.Ref{bufpool.Borrowed(bytes.Repeat([]byte("n"), ps))}, 0); err != nil {
				t.Error(err)
			}
		})
		if _, err := moved.Read(env, nil, 0, ps); err != nil {
			t.Error(err)
			return
		}
		private(moved, 0, payload[:ps])
	})
	eng.Run()
	if t.Failed() {
		return
	}

	// On a crash mount a full page is shared and a hole is a private page of
	// zeros.
	eng.Spawn("appender", func(env *sim.Env) {
		if err := full.Append(env, payload[:ps]); err != nil { // never synced
			t.Error(err)
		}
	})
	eng.Run()
	fs.Close() // the crash takes the old cache with it
	eng2 := sim.NewEngine()
	nfs := fs.Remount(eng2)
	eng2.Spawn("crash reader", func(env *sim.Env) {
		f, err := nfs.Open("full")
		if err != nil {
			t.Error(err)
			return
		}
		inFlight := pool.InFlight()
		if _, err := f.Read(env, nil, 0, int(f.Size())); err != nil {
			t.Error(err)
			return
		}
		if d := pool.InFlight() - inFlight; d != 1 {
			t.Errorf("a crash-mounted read of three stored pages and a hole took %d pool segments, want 1", d)
		}
		for i := range 3 {
			if pg := f.pages[i]; pg.seg != dev.StoredRef(lpa(f, int64(i))).Seg || !pg.shared || pg.seg.Refs() != 2 {
				t.Errorf("crash-mounted page %d does not share the NAND's segment", i)
			}
		}
		if dev.Mapped(lpa(f, 3)) {
			t.Fatal("rig: file page 3 is not a hole")
		}
		private(f, 3, make([]byte, ps))
	})
	eng2.Run()

	nfs.Close()
	dev.FTL().Array().ReleaseStored()
	if n := pool.InFlight(); n != 0 {
		t.Fatalf("%d segments in flight after teardown", n)
	}
}
