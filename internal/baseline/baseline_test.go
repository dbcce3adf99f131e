package baseline

import (
	"bytes"
	"fmt"
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
	geo := nand.Geometry{Channels: 2, DiesPerChannel: 2, BlocksPerDie: 48, PagesPerBlock: 16, PageSize: 512}
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
