package kernelio

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/slimio/slimio/internal/bufpool"
	"github.com/slimio/slimio/internal/fdp"
	"github.com/slimio/slimio/internal/nand"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/ssd"
)

// rig bundles a fresh engine + device + filesystem for tests.
type rig struct {
	eng *sim.Engine
	dev *ssd.Device
	fs  *Filesystem
}

// newConvDevice builds the conventional (single-stream) SSD the kernel path
// runs on in every experiment.
func newConvDevice(t *testing.T, geo nand.Geometry) *ssd.Device {
	t.Helper()
	arr, err := nand.New(geo, nand.DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	f, err := fdp.NewConventional(arr, fdp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return ssd.New(f, ssd.Config{})
}

func newRig(t *testing.T, prof Profile, mode SchedMode) *rig {
	t.Helper()
	geo := nand.Geometry{Channels: 2, DiesPerChannel: 2, BlocksPerDie: 32, PagesPerBlock: 16, PageSize: 512}
	dev := newConvDevice(t, geo)
	eng := sim.NewEngine()
	return &rig{eng: eng, dev: dev, fs: NewFilesystem(eng, dev, prof, mode, DefaultCosts())}
}

// readAt is read(2) into one buffer: File.Read's views joined, nil when it
// read nothing.
func readAt(env *sim.Env, f *File, off int64, n int) ([]byte, error) {
	views, err := f.Read(env, nil, off, n)
	if len(views) == 0 {
		return nil, err
	}
	return bytes.Join(views, nil), err
}

// run executes fn as a process and drains the engine.
func (r *rig) run(t *testing.T, fn func(env *sim.Env)) {
	t.Helper()
	r.eng.Spawn("test", fn)
	r.eng.Run()
}

func TestWriteFsyncReadRoundTrip(t *testing.T) {
	r := newRig(t, F2FS(), SchedNone)
	payload := bytes.Repeat([]byte("slimio!"), 500) // 3.5 KiB, crosses pages
	r.run(t, func(env *sim.Env) {
		f, err := r.fs.Create("dump.rdb")
		if err != nil {
			t.Error(err)
			return
		}
		if err := f.Write(env, 0, payload); err != nil {
			t.Error(err)
			return
		}
		if err := f.Fsync(env); err != nil {
			t.Error(err)
			return
		}
		got, err := readAt(env, f, 0, len(payload))
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, payload) {
			t.Error("round trip mismatch")
		}
	})
}

func TestReadAfterDropCaches(t *testing.T) {
	r := newRig(t, EXT4(), SchedNone)
	payload := bytes.Repeat([]byte("x9"), 4000) // 8 KiB
	r.run(t, func(env *sim.Env) {
		f, _ := r.fs.Create("wal.log")
		if err := f.Write(env, 0, payload); err != nil {
			t.Error(err)
			return
		}
		if err := f.Fsync(env); err != nil {
			t.Error(err)
			return
		}
		r.fs.DropCaches()
		before := r.fs.Stats().CacheMisses
		got, err := readAt(env, f, 0, len(payload))
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, payload) {
			t.Error("cold read mismatch")
		}
		if r.fs.Stats().CacheMisses == before {
			t.Error("cold read did not miss the cache")
		}
	})
}

func TestReadAheadReducesDeviceRounds(t *testing.T) {
	r := newRig(t, F2FS(), SchedNone)
	n := 64 * 512 // 64 pages
	payload := bytes.Repeat([]byte("r"), n)
	var seqTime sim.Duration
	r.run(t, func(env *sim.Env) {
		f, _ := r.fs.Create("seq")
		if err := f.Write(env, 0, payload); err != nil {
			t.Error(err)
			return
		}
		if err := f.Fsync(env); err != nil {
			t.Error(err)
			return
		}
		r.fs.DropCaches()
		t0 := env.Now()
		for off := 0; off < n; off += 512 {
			if _, err := readAt(env, f, int64(off), 512); err != nil {
				t.Error(err)
				return
			}
		}
		seqTime = env.Now().Sub(t0)
	})
	// With RA=32 the device should be visited ~2 times, not 64: total time
	// must be well under 64 sequential uncached page reads.
	naive := sim.Duration(64) * (nand.DefaultLatencies().PageRead + 20*sim.Microsecond)
	if seqTime >= naive {
		t.Fatalf("sequential read %v not helped by readahead (naive %v)", seqTime, naive)
	}
}

func TestDirtyDataLostWithoutFsync(t *testing.T) {
	r := newRig(t, F2FS(), SchedNone)
	r.run(t, func(env *sim.Env) {
		f, _ := r.fs.Create("tmp")
		if err := f.Write(env, 0, []byte("volatile")); err != nil {
			t.Error(err)
			return
		}
		// Deleting with dirty data discards it; device never sees a write.
		before := r.dev.Stats().HostWritePages
		if err := r.fs.Delete(env, "tmp"); err != nil {
			t.Error(err)
			return
		}
		if got := r.dev.Stats().HostWritePages; got != before {
			t.Errorf("deleted dirty file reached the device: %d pages", got-before)
		}
	})
}

func TestDeleteTrimsExtents(t *testing.T) {
	r := newRig(t, F2FS(), SchedNone)
	r.run(t, func(env *sim.Env) {
		f, _ := r.fs.Create("old-snapshot")
		data := bytes.Repeat([]byte("s"), 512*10)
		if err := f.Write(env, 0, data); err != nil {
			t.Error(err)
			return
		}
		if err := f.Fsync(env); err != nil {
			t.Error(err)
			return
		}
		if err := r.fs.Delete(env, "old-snapshot"); err != nil {
			t.Error(err)
			return
		}
		if r.fs.Exists("old-snapshot") {
			t.Error("file still exists")
		}
		// A new file reuses the freed extent.
		f2, _ := r.fs.Create("new")
		if err := f2.Write(env, 0, []byte("n")); err != nil {
			t.Error(err)
			return
		}
	})
}

func TestWriteToDeletedFileFails(t *testing.T) {
	r := newRig(t, F2FS(), SchedNone)
	r.run(t, func(env *sim.Env) {
		f, _ := r.fs.Create("gone")
		if err := r.fs.Delete(env, "gone"); err != nil {
			t.Error(err)
			return
		}
		if err := f.Write(env, 0, []byte("x")); err == nil {
			t.Error("write to deleted file succeeded")
		}
		if err := f.Fsync(env); err == nil {
			t.Error("fsync of deleted file succeeded")
		}
		if _, err := readAt(env, f, 0, 1); err == nil {
			t.Error("read of deleted file succeeded")
		}
	})
}

func TestCreateDuplicateFails(t *testing.T) {
	r := newRig(t, F2FS(), SchedNone)
	if _, err := r.fs.Create("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.fs.Create("a"); err == nil {
		t.Fatal("duplicate create succeeded")
	}
	if _, err := r.fs.Open("missing"); err == nil {
		t.Fatal("open of missing file succeeded")
	}
}

func TestAppendGrowsFile(t *testing.T) {
	r := newRig(t, F2FS(), SchedNone)
	r.run(t, func(env *sim.Env) {
		f, _ := r.fs.Create("log")
		for i := 0; i < 10; i++ {
			if err := f.Append(env, []byte("entry-")); err != nil {
				t.Error(err)
				return
			}
		}
		if f.Size() != 60 {
			t.Errorf("size = %d, want 60", f.Size())
		}
		got, err := readAt(env, f, 54, 6)
		if err != nil || string(got) != "entry-" {
			t.Errorf("tail read = %q, %v", got, err)
		}
	})
}

func TestFsyncDurability(t *testing.T) {
	// After fsync, the device itself must hold the bytes (read the LPAs
	// directly, bypassing the cache).
	r := newRig(t, EXT4(), SchedNone)
	r.run(t, func(env *sim.Env) {
		f, _ := r.fs.Create("durable")
		payload := bytes.Repeat([]byte("D"), 512)
		if err := f.Write(env, 0, payload); err != nil {
			t.Error(err)
			return
		}
		if err := f.Fsync(env); err != nil {
			t.Error(err)
			return
		}
		lpa, err := f.lpaOf(0)
		if err != nil {
			t.Error(err)
			return
		}
		pages, err := r.dev.Read(env, lpa, 1)
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(pages[0], payload) {
			t.Error("device does not hold fsynced bytes")
		}
	})
}

func TestJournalContentionBetweenProcesses(t *testing.T) {
	// Two writers on one filesystem must contend on the journal lock.
	r := newRig(t, EXT4(), SchedNone)
	buf := bytes.Repeat([]byte("c"), 256)
	writer := func(name string) func(*sim.Env) {
		return func(env *sim.Env) {
			f, err := r.fs.Create(name)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 200; i++ {
				if err := f.Append(env, buf); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}
	r.eng.Spawn("w1", writer("f1"))
	r.eng.Spawn("w2", writer("f2"))
	r.eng.Run()
	if r.fs.Stats().JournalLockWait == 0 {
		t.Fatal("no journal contention observed between concurrent writers")
	}
}

func TestDirtyThrottlingStallsFastWriter(t *testing.T) {
	// Tight thresholds so the test device can hold the burst.
	costs := DefaultCosts()
	costs.DirtyBackgroundPages = 64
	costs.DirtyThrottlePages = 256
	geo := nand.Geometry{Channels: 2, DiesPerChannel: 2, BlocksPerDie: 32, PagesPerBlock: 16, PageSize: 512}
	eng := sim.NewEngine()
	dev := newConvDevice(t, geo)
	r := &rig{eng: eng, dev: dev, fs: NewFilesystem(eng, dev, F2FS(), SchedNone, costs)}
	page := bytes.Repeat([]byte("t"), 512)
	r.run(t, func(env *sim.Env) {
		f, _ := r.fs.Create("burst")
		// Write far beyond the throttle threshold as fast as possible.
		for i := 0; i < costs.DirtyThrottlePages*4; i++ {
			if err := f.Append(env, page); err != nil {
				t.Error(err)
				return
			}
		}
	})
	s := r.fs.Stats()
	if s.ThrottleStalls == 0 {
		t.Fatal("burst writer was never throttled")
	}
	if s.ThrottleTime == 0 {
		t.Fatal("throttle stalls accumulated no time")
	}
}

func TestSyncPrioritySchedulerFavorsFsync(t *testing.T) {
	// Submit a big async backlog, then a sync request: under sync-priority
	// it must dispatch before the backlog; under none it waits its turn.
	latency := func(mode SchedMode) sim.Duration {
		geo := nand.Geometry{Channels: 2, DiesPerChannel: 2, BlocksPerDie: 32, PagesPerBlock: 16, PageSize: 512}
		eng := sim.NewEngine()
		dev := newConvDevice(t, geo)
		sched := NewScheduler(eng, dev, mode, DefaultCosts())
		var lat sim.Duration
		eng.Spawn("submitter", func(env *sim.Env) {
			page := make([]byte, 512)
			for i := 0; i < 100; i++ {
				sched.Submit([]ssd.PageWrite{{LPA: int64(100 + i), Data: bufpool.Borrowed(page)}}, false)
			}
			req := sched.Submit([]ssd.PageWrite{{LPA: 50, Data: bufpool.Borrowed(page)}}, true)
			t0 := env.Now()
			req.Done.Wait(env)
			lat = env.Now().Sub(t0)
		})
		eng.Run()
		return lat
	}
	none, prio := latency(SchedNone), latency(SchedSyncPriority)
	if prio >= none {
		t.Fatalf("sync-priority latency %v not better than none %v", prio, none)
	}
}

func TestGroupCommitSharesJournalWrites(t *testing.T) {
	// Many processes fsyncing small appends concurrently must produce far
	// fewer commits than fsyncs.
	r := newRig(t, EXT4(), SchedSyncPriority)
	const writers = 16
	const rounds = 8
	for w := 0; w < writers; w++ {
		name := fmt.Sprintf("f%d", w)
		r.eng.Spawn(name, func(env *sim.Env) {
			f, err := r.fs.Create(name)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < rounds; i++ {
				if err := f.Append(env, []byte("e")); err != nil {
					t.Error(err)
					return
				}
				if err := f.Fsync(env); err != nil {
					t.Error(err)
					return
				}
			}
		})
	}
	r.eng.Run()
	commits := r.fs.Stats().Commits
	if commits == 0 {
		t.Fatal("no commits")
	}
	if commits >= writers*rounds {
		t.Fatalf("commits = %d, want group commit to merge %d fsyncs", commits, writers*rounds)
	}
}

func TestCPUBillingTags(t *testing.T) {
	r := newRig(t, F2FS(), SchedNone)
	var p *sim.Proc
	p = r.eng.Spawn("snapshotter", func(env *sim.Env) {
		f, _ := r.fs.Create("dump")
		for i := 0; i < 50; i++ {
			if err := f.Append(env, bytes.Repeat([]byte("b"), 512)); err != nil {
				t.Error(err)
				return
			}
		}
		if err := f.Fsync(env); err != nil {
			t.Error(err)
		}
	})
	r.eng.Run()
	if p.BusyTime(TagSyscall) == 0 {
		t.Error("no syscall CPU billed")
	}
	if p.BusyTime(TagFS) == 0 {
		t.Error("no fs CPU billed")
	}
	if p.BusyTime(TagCopy) == 0 {
		t.Error("no copy CPU billed")
	}
}

func TestConcurrentWritersIntegrity(t *testing.T) {
	// WAL-style appender + snapshot-style bulk writer sharing the fs: both
	// files must read back intact.
	r := newRig(t, EXT4(), SchedSyncPriority)
	rng := rand.New(rand.NewSource(5))
	walData := make([][]byte, 100)
	for i := range walData {
		walData[i] = []byte(fmt.Sprintf("wal-entry-%03d;", i))
	}
	snapData := bytes.Repeat([]byte("SNAPSHOT"), 2048) // 16 KiB
	_ = rng
	r.eng.Spawn("wal", func(env *sim.Env) {
		f, err := r.fs.Create("wal")
		if err != nil {
			t.Error(err)
			return
		}
		for _, e := range walData {
			if err := f.Append(env, e); err != nil {
				t.Error(err)
				return
			}
			if err := f.Fsync(env); err != nil {
				t.Error(err)
				return
			}
		}
	})
	r.eng.Spawn("snap", func(env *sim.Env) {
		f, err := r.fs.Create("snap")
		if err != nil {
			t.Error(err)
			return
		}
		for off := 0; off < len(snapData); off += 512 {
			end := off + 512
			if end > len(snapData) {
				end = len(snapData)
			}
			if err := f.Write(env, int64(off), snapData[off:end]); err != nil {
				t.Error(err)
				return
			}
		}
		if err := f.Fsync(env); err != nil {
			t.Error(err)
			return
		}
	})
	r.eng.Run()
	// Verify both files.
	r.eng.Spawn("verify", func(env *sim.Env) {
		r.fs.DropCaches()
		wal, _ := r.fs.Open("wal")
		var want []byte
		for _, e := range walData {
			want = append(want, e...)
		}
		got, err := readAt(env, wal, 0, len(want))
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("wal corrupted: %v", err)
		}
		snap, _ := r.fs.Open("snap")
		got, err = readAt(env, snap, 0, len(snapData))
		if err != nil || !bytes.Equal(got, snapData) {
			t.Errorf("snapshot corrupted: %v", err)
		}
	})
	r.eng.Run()
}

func TestReadPastEOF(t *testing.T) {
	r := newRig(t, F2FS(), SchedNone)
	r.run(t, func(env *sim.Env) {
		f, _ := r.fs.Create("short")
		if err := f.Write(env, 0, []byte("abc")); err != nil {
			t.Error(err)
			return
		}
		got, err := readAt(env, f, 10, 5)
		if err != nil || got != nil {
			t.Errorf("read past EOF = %q, %v", got, err)
		}
		got, err = readAt(env, f, 1, 100)
		if err != nil || string(got) != "bc" {
			t.Errorf("short read = %q, %v", got, err)
		}
	})
}

// TestReadReturnsCacheViews: File.Read appends one view per cached page,
// cut to the requested range and to EOF, aliasing the page cache rather than
// copying it, and bills read(2) as before. A hole on a crash-mounted
// filesystem reads as a view of a zeroed cache page.
func TestReadReturnsCacheViews(t *testing.T) {
	const ps = 512
	t.Run("ranges", func(t *testing.T) {
		payload := make([]byte, 3*ps+200) // three pages and a partial fourth
		for i := range payload {
			payload[i] = byte(i*7 + 1)
		}
		r := newRig(t, F2FS(), SchedNone)
		r.run(t, func(env *sim.Env) {
			f, _ := r.fs.Create("views")
			if err := f.Write(env, 0, payload); err != nil {
				t.Error(err)
				return
			}
			if err := f.Fsync(env); err != nil {
				t.Error(err)
				return
			}
			for _, tc := range []struct {
				name string
				off  int64
				n    int
				lens []int
			}{
				{"starts and ends mid-page", 10, 100, []int{100}},
				{"straddles pages", ps - 12, ps + 100, []int{12, ps, 88}},
				{"cut at EOF", 3*ps + 100, 500, []int{100}},
				{"past EOF", int64(len(payload)) + 1, 10, nil},
			} {
				prior := [][]byte{[]byte("kept")}
				before := r.fs.Stats()
				got, err := f.Read(env, prior, tc.off, tc.n)
				if err != nil {
					t.Errorf("%s: %v", tc.name, err)
					continue
				}
				if len(got) != 1+len(tc.lens) || string(got[0]) != "kept" {
					t.Errorf("%s: %d runs after the caller's one, want %d views appended", tc.name, len(got)-1, len(tc.lens))
					continue
				}
				want := payload[min(tc.off, int64(len(payload))):min(tc.off+int64(tc.n), int64(len(payload)))]
				pos := tc.off
				for i, v := range got[1:] {
					if len(v) != tc.lens[i] || cap(v) != len(v) {
						t.Errorf("%s: view %d has len %d cap %d, want len = cap = %d", tc.name, i, len(v), cap(v), tc.lens[i])
					}
					if pg := f.pages[pos/ps]; &v[0] != &pg.data[pos%ps] {
						t.Errorf("%s: view %d does not alias cached page %d", tc.name, i, pos/ps)
					}
					pos += int64(len(v))
				}
				if joined := bytes.Join(got[1:], nil); !bytes.Equal(joined, want) {
					t.Errorf("%s: read %d bytes that differ from the %d written there", tc.name, len(joined), len(want))
				}
				after := r.fs.Stats()
				if after.Syscalls != before.Syscalls+1 || after.BytesRead != before.BytesRead+int64(len(want)) {
					t.Errorf("%s: billed %d syscalls and %d bytes, want 1 and %d", tc.name,
						after.Syscalls-before.Syscalls, after.BytesRead-before.BytesRead, len(want))
				}
			}
		})
	})

	t.Run("hit after miss", func(t *testing.T) {
		r := newRig(t, F2FS(), SchedNone)
		r.run(t, func(env *sim.Env) {
			f, _ := r.fs.Create("views")
			if err := f.Write(env, 0, bytes.Repeat([]byte("h"), 2*ps)); err != nil {
				t.Error(err)
				return
			}
			if err := f.Fsync(env); err != nil {
				t.Error(err)
				return
			}
			r.fs.DropCaches()
			misses := r.fs.Stats().CacheMisses
			miss, err := f.Read(env, nil, ps, ps)
			if err != nil || r.fs.Stats().CacheMisses != misses+1 {
				t.Errorf("cold read: err = %v, %d misses, want 1", err, r.fs.Stats().CacheMisses-misses)
				return
			}
			hits := r.fs.Stats().CacheHits
			hit, err := f.Read(env, nil, ps, ps)
			if err != nil || r.fs.Stats().CacheHits != hits+1 {
				t.Errorf("warm read: err = %v, %d hits, want 1", err, r.fs.Stats().CacheHits-hits)
				return
			}
			if &hit[0][0] != &miss[0][0] {
				t.Error("a hit after a miss did not return a view of the page the miss filled")
			}
		})
	})

	t.Run("crash-mounted hole", func(t *testing.T) {
		eng, dev, fs := newRemountRig(t)
		eng.Spawn("writer", func(env *sim.Env) {
			f, _ := fs.Create("f.log")
			if err := f.Append(env, bytes.Repeat([]byte("D"), ps)); err != nil {
				t.Error(err)
				return
			}
			if err := f.Fsync(env); err != nil {
				t.Error(err)
				return
			}
			if err := f.Append(env, bytes.Repeat([]byte("x"), ps+10)); err != nil { // never synced
				t.Error(err)
			}
		})
		eng.Run()
		eng2 := sim.NewEngine()
		nfs := fs.Remount(eng2)
		eng2.Spawn("reader", func(env *sim.Env) {
			f, err := nfs.Open("f.log")
			if err != nil {
				t.Error(err)
				return
			}
			for idx := int64(1); idx <= 2; idx++ {
				if lpa, err := f.lpaOf(idx); err != nil || dev.Mapped(lpa) {
					t.Errorf("rig: file page %d is not a hole (err = %v)", idx, err)
					return
				}
			}
			views, err := f.Read(env, nil, 0, int(f.Size()))
			if err != nil {
				t.Error(err)
				return
			}
			if len(views) != 3 || !bytes.Equal(views[0], bytes.Repeat([]byte("D"), ps)) {
				t.Errorf("read %d views, want 3, the first the fsynced page", len(views))
				return
			}
			for i, v := range views[1:] {
				if &v[0] != &f.pages[1+i].data[0] {
					t.Errorf("the hole at file page %d is not a view of its cache page", 1+i)
				}
				if bytes.Count(v, []byte{0}) != len(v) {
					t.Errorf("the hole at file page %d read back non-zero bytes", 1+i)
				}
			}
		})
		eng2.Run()
	})
}

func TestSchedulerStats(t *testing.T) {
	r := newRig(t, F2FS(), SchedSyncPriority)
	r.run(t, func(env *sim.Env) {
		f, _ := r.fs.Create("x")
		if err := f.Write(env, 0, bytes.Repeat([]byte("z"), 2048)); err != nil {
			t.Error(err)
			return
		}
		if err := f.Fsync(env); err != nil {
			t.Error(err)
			return
		}
	})
	s := r.fs.Scheduler().Stats()
	if s.Dispatched == 0 || s.SyncDispatched == 0 {
		t.Fatalf("scheduler stats empty: %+v", s)
	}
}

func TestENOSPC(t *testing.T) {
	// Tiny device: writing beyond capacity must surface ENOSPC.
	geo := nand.Geometry{Channels: 1, DiesPerChannel: 1, BlocksPerDie: 8, PagesPerBlock: 16, PageSize: 512}
	eng := sim.NewEngine()
	dev := newConvDevice(t, geo)
	fs := NewFilesystem(eng, dev, F2FS(), SchedNone, DefaultCosts())
	var sawErr bool
	eng.Spawn("filler", func(env *sim.Env) {
		f, _ := fs.Create("big")
		chunk := bytes.Repeat([]byte("f"), 512)
		for i := 0; i < 10000; i++ {
			if err := f.Append(env, chunk); err != nil {
				sawErr = errors.Is(err, ErrNoSpace)
				return
			}
		}
	})
	eng.Run()
	if !sawErr {
		t.Fatal("filesystem never reported ErrNoSpace")
	}
}
