package baseline

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"github.com/slimio/slimio/internal/fdp"
	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/kernelio"
	"github.com/slimio/slimio/internal/nand"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/ssd"
	"github.com/slimio/slimio/internal/wal"
)

type rig struct {
	eng *sim.Engine
	dev *ssd.Device
	fs  *kernelio.Filesystem
	be  *Backend
}

func newRig(t *testing.T, prof kernelio.Profile) *rig {
	t.Helper()
	return newRigOn(t, prof, nand.Geometry{Channels: 2, DiesPerChannel: 2, BlocksPerDie: 48, PagesPerBlock: 16, PageSize: 512})
}

func newRigOn(t *testing.T, prof kernelio.Profile, geo nand.Geometry) *rig {
	t.Helper()
	arr, err := nand.New(geo, nand.DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	conv, err := fdp.NewConventional(arr, fdp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	dev := ssd.New(conv, ssd.Config{})
	fs := kernelio.NewFilesystem(eng, dev, prof, kernelio.SchedNone, kernelio.DefaultCosts())
	be, err := New(fs)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{eng: eng, dev: dev, fs: fs, be: be}
}

func (r *rig) run(t *testing.T, fn func(env *sim.Env)) {
	t.Helper()
	r.eng.Spawn("test", fn)
	r.eng.Run()
}

func TestWALAppendSyncRecover(t *testing.T) {
	r := newRig(t, kernelio.F2FS())
	r.run(t, func(env *sim.Env) {
		var stream []byte
		for i := 0; i < 20; i++ {
			stream = wal.AppendRecord(stream[:0], wal.OpSet, []byte(fmt.Sprintf("k%d", i)), bytes.Repeat([]byte("v"), 100))
			if err := r.be.WALAppend(env, r.chain(stream)); err != nil {
				t.Error(err)
				return
			}
		}
		if err := r.be.WALSync(env); err != nil {
			t.Error(err)
			return
		}
		rec, err := r.be.Recover(env)
		if err != nil {
			t.Error(err)
			return
		}
		var recs int
		for _, seg := range rec.WAL {
			recs += seg.Count()
		}
		if recs != 20 {
			t.Errorf("recovered %d records", recs)
		}
		if rec.HaveSnapshot {
			t.Error("phantom snapshot")
		}
	})
}

// A WAL append that finds the filesystem full reports a full log
// (imdb.ErrLogFull, wrapping ENOSPC) and leaves the chain with its caller.
func TestWALAppendENOSPCIsLogFull(t *testing.T) {
	r := newRig(t, kernelio.F2FS())
	r.run(t, func(env *sim.Env) {
		chunk := bytes.Repeat([]byte("x"), 64<<10)
		for i := 0; i < 1000; i++ {
			c := r.chain(chunk)
			err := r.be.WALAppend(env, c)
			if err == nil {
				continue
			}
			if !errors.Is(err, imdb.ErrLogFull) || !errors.Is(err, kernelio.ErrNoSpace) {
				t.Errorf("append on a full filesystem = %v, want ErrLogFull wrapping ENOSPC", err)
			}
			c.Release()
			return
		}
		t.Error("the filesystem never filled")
	})
}

func TestSnapshotCommitRename(t *testing.T) {
	r := newRig(t, kernelio.EXT4())
	img := bytes.Repeat([]byte("IMG"), 2000)
	r.run(t, func(env *sim.Env) {
		sink, err := r.be.BeginSnapshot(env, imdb.WALSnapshot)
		if err != nil {
			t.Error(err)
			return
		}
		if err := sink.Write(env, img); err != nil {
			t.Error(err)
			return
		}
		if err := sink.Commit(env); err != nil {
			t.Error(err)
			return
		}
		if !r.fs.Exists("dump-wal.rdb") {
			t.Error("snapshot not renamed into place")
		}
		rec, err := r.be.Recover(env)
		if err != nil {
			t.Error(err)
			return
		}
		if !rec.HaveSnapshot || !bytes.Equal(bytes.Join(rec.Snapshot, nil), img) {
			t.Error("snapshot image corrupted")
		}
	})
}

func TestSnapshotReplacesPrevious(t *testing.T) {
	r := newRig(t, kernelio.F2FS())
	r.run(t, func(env *sim.Env) {
		for round := 0; round < 3; round++ {
			sink, err := r.be.BeginSnapshot(env, imdb.WALSnapshot)
			if err != nil {
				t.Error(err)
				return
			}
			img := bytes.Repeat([]byte{byte('0' + round)}, 1500)
			if err := sink.Write(env, img); err != nil {
				t.Error(err)
				return
			}
			if err := sink.Commit(env); err != nil {
				t.Error(err)
				return
			}
		}
		rec, err := r.be.Recover(env)
		if err != nil {
			t.Error(err)
			return
		}
		if rec.Snapshot[0][0] != '2' {
			t.Errorf("latest snapshot not recovered: %c", rec.Snapshot[0][0])
		}
	})
}

func TestAbortRemovesTemp(t *testing.T) {
	r := newRig(t, kernelio.F2FS())
	r.run(t, func(env *sim.Env) {
		sink, _ := r.be.BeginSnapshot(env, imdb.OnDemandSnapshot)
		if err := sink.Write(env, []byte("partial")); err != nil {
			t.Error(err)
			return
		}
		if err := sink.Abort(env); err != nil {
			t.Error(err)
			return
		}
		rec, _ := r.be.Recover(env)
		if rec.HaveSnapshot {
			t.Error("aborted snapshot recovered")
		}
	})
}

func TestWALRotateAndDiscard(t *testing.T) {
	r := newRig(t, kernelio.F2FS())
	r.run(t, func(env *sim.Env) {
		if err := r.be.WALAppend(env, r.chain(bytes.Repeat([]byte("x"), 5000))); err != nil {
			t.Error(err)
			return
		}
		if err := r.be.WALSync(env); err != nil {
			t.Error(err)
			return
		}
		if err := r.be.WALRotate(env); err != nil {
			t.Error(err)
			return
		}
		if r.be.WALDurableSize() != 0 {
			t.Error("new segment not empty")
		}
		if err := r.be.WALAppend(env, r.chain(bytes.Repeat([]byte("y"), 100))); err != nil {
			t.Error(err)
			return
		}
		// Both segments recoverable before the discard.
		rec, err := r.be.Recover(env)
		if err != nil {
			t.Error(err)
			return
		}
		if len(rec.WAL) != 2 || rec.WAL[0].Len != 5000 {
			t.Errorf("segments = %d", len(rec.WAL))
			return
		}
		if err := r.be.WALDiscardOld(env); err != nil {
			t.Error(err)
			return
		}
		rec, err = r.be.Recover(env)
		if err != nil {
			t.Error(err)
			return
		}
		if len(rec.WAL) != 1 || rec.WAL[0].Len != 100 {
			t.Errorf("post-discard segments wrong: %d", len(rec.WAL))
		}
	})
}

func TestEndToEndEngineRecovery(t *testing.T) {
	r := newRig(t, kernelio.EXT4())
	db := imdb.New(r.eng, r.be, withPool(imdb.Config{Policy: imdb.PeriodicalLog, WALSnapshotTrigger: 32 << 10}, r.dev), nil)
	db.Start()
	final := map[string]string{}
	r.eng.Spawn("client", func(env *sim.Env) {
		for i := 0; i < 500; i++ {
			k := fmt.Sprintf("key%03d", i%60)
			v := fmt.Sprintf("val-%d-%s", i, bytes.Repeat([]byte("p"), 120))
			final[k] = v
			if err := db.Set(env, k, []byte(v)); err != nil {
				t.Error(err)
				return
			}
		}
		db.Shutdown(env)
	})
	r.eng.Run()
	if len(db.Stats().Snapshots) == 0 {
		t.Fatal("no WAL-snapshot triggered")
	}
	db2 := imdb.New(r.eng, r.be, withPool(imdb.Config{}, r.dev), nil)
	r.eng.Spawn("recover", func(env *sim.Env) {
		r.fs.DropCaches()
		if _, _, err := db2.Recover(env); err != nil {
			t.Error(err)
		}
	})
	r.eng.Run()
	if db2.Store().Len() != len(final) {
		t.Fatalf("recovered %d keys, want %d", db2.Store().Len(), len(final))
	}
	for k, v := range final {
		if got := db2.Store().Get(k); string(got) != v {
			t.Fatalf("key %s mismatch", k)
		}
	}
}

func TestLabelIncludesFilesystem(t *testing.T) {
	r := newRig(t, kernelio.EXT4())
	if r.be.Label() != "baseline/ext4" {
		t.Fatalf("label = %q", r.be.Label())
	}
}

// chain copies raw framed bytes into the stack's pool as a wal.Chain
// (WALAppend consumes the references on success).
func (r *rig) chain(data []byte) wal.Chain {
	return wal.NewChain(r.dev.FTL().Array().Pool(), data)
}

// withPool points the engine's WAL buffer at the device's page pool, the
// way production wiring does (exp.RunCell, slimio.New).
func withPool(cfg imdb.Config, dev *ssd.Device) imdb.Config {
	cfg.Pool = dev.FTL().Array().Pool()
	return cfg
}

// After a crash the open WAL segment ends mid-page, so every span of the
// next append lands unaligned and takes write(2)'s copy path, not the
// page-adopting one. More than two pages appended there must read back after
// the next crash as the seamless continuation of the recovered stream, and
// the copies must release every segment they copied.
func TestRecoverContinuesAppending(t *testing.T) {
	r := newRig(t, kernelio.F2FS())
	ps := r.dev.PageSize()
	recA := wal.AppendRecord(nil, wal.OpSet, []byte("a"), bytes.Repeat([]byte("1"), 700))
	var recB []byte
	nB := 0
	for ; len(recB) <= 2*ps; nB++ {
		recB = wal.AppendRecord(recB, wal.OpSet, []byte(fmt.Sprintf("b%d", nB)), bytes.Repeat([]byte{byte('2' + nB)}, 300))
	}
	r.run(t, func(env *sim.Env) {
		if err := r.be.WALAppend(env, r.chain(recA)); err != nil {
			t.Error(err)
			return
		}
		if err := r.be.WALSync(env); err != nil {
			t.Error(err)
		}
	})
	eng2 := sim.NewEngine()
	fs2 := r.fs.Remount(eng2)
	be2, err := Remount(fs2)
	if err != nil {
		t.Fatal(err)
	}
	eng2.Spawn("continue", func(env *sim.Env) {
		if _, err := be2.Recover(env); err != nil {
			t.Error(err)
			return
		}
		if be2.WALDurableSize()%int64(ps) == 0 {
			t.Error("rig: the recovered WAL does not end mid-page")
		}
		if err := be2.WALAppend(env, r.chain(recB)); err != nil {
			t.Error(err)
			return
		}
		if err := be2.WALSync(env); err != nil {
			t.Error(err)
		}
	})
	eng2.Run()
	eng3 := sim.NewEngine()
	be3, err := Remount(fs2.Remount(eng3))
	if err != nil {
		t.Fatal(err)
	}
	eng3.Spawn("verify", func(env *sim.Env) {
		rec, err := be3.Recover(env)
		if err != nil {
			t.Error(err)
			return
		}
		var got []byte
		for _, seg := range rec.WAL {
			for _, rc := range seg.Records() {
				got = wal.AppendRecord(got, rc.Op, rc.Key, rc.Value)
			}
		}
		if want := append(append([]byte(nil), recA...), recB...); !bytes.Equal(got, want) {
			t.Errorf("recovered %d bytes of records, want the %d appended across the crash", len(got), len(want))
		}
	})
	eng3.Run()
	r.be.Close()
	be2.Close()
	be3.Close()
	r.dev.FTL().Array().ReleaseStored()
	if n := r.dev.FTL().Array().Pool().InFlight(); n != 0 {
		t.Fatalf("%d pooled segments in flight after teardown", n)
	}
}

// TestRecoverReadAllocBudget pins the read(2) contract of recovery: the
// baseline hands the engine views of the page-cache pages it read, as core
// hands over device pages, so reading a cold snapshot and log costs the heap
// a few bytes of bookkeeping per page (the run slices, cache-page headers,
// the log's frame table), never a copy of the bytes. One cold recovery runs
// first, so the measured one is a process's second, as in the benchmark's
// timed repetitions. The fixed cost of a Recover call (process, segment
// list, notes) is measured on a short snapshot+log and subtracted. The cache
// fill does not copy either: it shares every full pooled page the device
// stores, so the pool's in-flight count grows only by the pages it must copy.
func TestRecoverReadAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race builds record bufpool acquire/release sites, which allocates")
	}
	const ps = 4096
	run := func(kib int) (read int, alloc uint64) {
		r := newRigOn(t, kernelio.F2FS(), nand.Geometry{Channels: 2, DiesPerChannel: 2, BlocksPerDie: 64, PagesPerBlock: 32, PageSize: ps})
		var log []byte
		for i := 0; len(log) < kib<<10; i++ {
			log = wal.AppendRecord(log, wal.OpSet, []byte(fmt.Sprintf("k%d", i%8)), bytes.Repeat([]byte{byte(i)}, 4000))
		}
		img := bytes.Repeat([]byte("IMG-"), kib<<8)
		r.run(t, func(env *sim.Env) {
			sink, err := r.be.BeginSnapshot(env, imdb.WALSnapshot)
			if err == nil {
				err = sink.Write(env, img)
			}
			if err == nil {
				err = sink.Commit(env)
			}
			if err == nil {
				err = r.be.WALAppend(env, r.chain(log))
			}
			if err == nil {
				err = r.be.WALSync(env)
			}
			if err != nil {
				t.Error(err)
			}
		})
		var rec *imdb.Recovered
		recoverOnce := func(env *sim.Env) {
			var err error
			if rec, err = r.be.Recover(env); err != nil {
				t.Error(err)
			}
		}
		r.fs.DropCaches()
		r.run(t, recoverOnce) // the process's first recovery
		r.fs.DropCaches()
		copied := 0 // mapped device pages a cache fill must copy: not full and pooled
		for lpa := int64(0); lpa < r.dev.Capacity(); lpa++ {
			if ref := r.dev.StoredRef(lpa); r.dev.Mapped(lpa) && (ref.Seg == nil || len(ref.B) != ps) {
				copied++
			}
		}
		pool := r.dev.FTL().Array().Pool()
		inFlight := pool.InFlight()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		r.run(t, recoverOnce)
		runtime.ReadMemStats(&ms1)
		if t.Failed() {
			t.FailNow()
		}
		if grew := pool.InFlight() - inFlight; grew > int64(copied) {
			t.Fatalf("a cold recovery of %d KiB took %d pool segments, budget %d (the device pages that are not full pooled pages): the cache shares the rest",
				kib, grew, copied)
		}
		if got := bytes.Join(rec.Snapshot, nil); !bytes.Equal(got, img) || len(rec.WAL) != 1 || rec.WAL[0].Len != int64(len(log)) {
			t.Fatalf("recovered a %d-byte image and %d log segments, want the %d-byte image and one %d-byte segment",
				len(got), len(rec.WAL), len(img), len(log))
		}
		r.be.Close()
		return len(img) + len(log), ms1.TotalAlloc - ms0.TotalAlloc
	}
	shortRead, shortAlloc := run(64)
	longRead, longAlloc := run(4096)
	perByte := (float64(longAlloc) - float64(shortAlloc)) / float64(longRead-shortRead)
	if perByte > 1.0/16 {
		t.Fatalf("recovery allocates %.3f B per byte read (%d B for %d bytes vs %d B for %d), budget 1/16: views of the page cache, no copy",
			perByte, longAlloc, longRead, shortAlloc, shortRead)
	}
}
