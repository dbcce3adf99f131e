package core

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/wal"
)

// recoveredRecords concatenates the records of all recovered segments.
func recoveredRecords(rec *imdb.Recovered) []wal.Record {
	var out []wal.Record
	for _, seg := range rec.WAL {
		out = append(out, seg.Records...)
	}
	return out
}

// Crash between rotation and snapshot commit: both the sealed and the open
// segment must be recovered, in order.
func TestCrashMidSnapshotRecoversBothSegments(t *testing.T) {
	r := newRig(t)
	mkRec := func(i int) []byte {
		return wal.AppendRecord(nil, wal.OpSet, []byte(fmt.Sprintf("k%03d", i)), bytes.Repeat([]byte("v"), 200))
	}
	r.run(t, func(env *sim.Env) {
		for i := 0; i < 10; i++ {
			if err := r.be.WALAppend(env, r.chain(mkRec(i))); err != nil {
				t.Error(err)
				return
			}
		}
		if err := r.be.WALSync(env); err != nil {
			t.Error(err)
			return
		}
		// Fork point: rotate. (The snapshot never completes — crash.)
		if err := r.be.WALRotate(env); err != nil {
			t.Error(err)
			return
		}
		for i := 10; i < 15; i++ {
			if err := r.be.WALAppend(env, r.chain(mkRec(i))); err != nil {
				t.Error(err)
				return
			}
		}
		if err := r.be.WALSync(env); err != nil {
			t.Error(err)
		}
	})
	eng2 := sim.NewEngine()
	be2, _ := New(eng2, r.dev, Config{MetaPages: 8, SlotPages: 96})
	eng2.Spawn("recover", func(env *sim.Env) {
		rec, err := be2.Recover(env)
		if err != nil {
			t.Error(err)
			return
		}
		if len(rec.WAL) != 2 {
			t.Errorf("segments = %d, want 2 (sealed + open)", len(rec.WAL))
		}
		recs := recoveredRecords(rec)
		if len(recs) != 15 {
			t.Errorf("recovered %d records, want 15", len(recs))
			return
		}
		for i, rc := range recs {
			if string(rc.Key) != fmt.Sprintf("k%03d", i) {
				t.Fatalf("record %d out of order: %q", i, rc.Key)
			}
		}
	})
	eng2.Run()
}

// Repeatedly failing snapshots stack sealed segments (up to the table
// limit); all of them recover in order.
func TestMultipleSealedSegments(t *testing.T) {
	r := newRig(t)
	var want int
	r.run(t, func(env *sim.Env) {
		idx := 0
		for seal := 0; seal < 3; seal++ {
			for i := 0; i < 4; i++ {
				rec := wal.AppendRecord(nil, wal.OpSet, []byte(fmt.Sprintf("k%04d", idx)), []byte("x"))
				idx++
				if err := r.be.WALAppend(env, r.chain(rec)); err != nil {
					t.Error(err)
					return
				}
			}
			if err := r.be.WALSync(env); err != nil {
				t.Error(err)
				return
			}
			if err := r.be.WALRotate(env); err != nil {
				t.Error(err)
				return
			}
		}
		want = idx
	})
	eng2 := sim.NewEngine()
	be2, _ := New(eng2, r.dev, Config{MetaPages: 8, SlotPages: 96})
	eng2.Spawn("recover", func(env *sim.Env) {
		rec, err := be2.Recover(env)
		if err != nil {
			t.Error(err)
			return
		}
		recs := recoveredRecords(rec)
		if len(recs) != want {
			t.Errorf("recovered %d records, want %d", len(recs), want)
			return
		}
		for i, rc := range recs {
			if string(rc.Key) != fmt.Sprintf("k%04d", i) {
				t.Fatalf("record %d out of order: %q", i, rc.Key)
			}
		}
	})
	eng2.Run()
}

func TestRotateLimitEnforced(t *testing.T) {
	r := newRig(t)
	r.run(t, func(env *sim.Env) {
		for seal := 0; seal < maxSealedSegments; seal++ {
			if err := r.be.WALAppend(env, r.chain(bytes.Repeat([]byte("x"), 600))); err != nil {
				t.Error(err)
				return
			}
			if err := r.be.WALRotate(env); err != nil {
				t.Errorf("rotate %d: %v", seal, err)
				return
			}
		}
		if err := r.be.WALAppend(env, r.chain(bytes.Repeat([]byte("x"), 600))); err != nil {
			t.Error(err)
			return
		}
		if err := r.be.WALRotate(env); err == nil {
			t.Error("rotation beyond the segment-table limit accepted")
		}
		// Discard clears the table and rotation works again.
		if err := r.be.WALDiscardOld(env); err != nil {
			t.Error(err)
			return
		}
		if err := r.be.WALRotate(env); err != nil {
			t.Errorf("rotate after discard: %v", err)
		}
	})
}

func TestRotateEmptySegmentIsNoop(t *testing.T) {
	r := newRig(t)
	r.run(t, func(env *sim.Env) {
		if err := r.be.WALRotate(env); err != nil {
			t.Error(err)
		}
		if r.be.meta.sealedCount() != 0 {
			t.Error("empty rotation sealed a segment")
		}
	})
}

// The metadata region is cyclic: many more state transitions than meta
// pages must still recover the newest record.
func TestMetadataRegionWraps(t *testing.T) {
	r := newRig(t) // MetaPages: 8
	rounds := 3 * 8
	r.run(t, func(env *sim.Env) {
		for i := 0; i < rounds; i++ {
			if err := r.be.WALAppend(env, r.chain(bytes.Repeat([]byte("m"), 700))); err != nil {
				t.Error(err)
				return
			}
			if err := r.be.WALRotate(env); err != nil { // one meta write
				t.Error(err)
				return
			}
			if err := r.be.WALDiscardOld(env); err != nil { // another
				t.Error(err)
				return
			}
		}
	})
	if r.be.meta.seq != uint64(2*rounds) {
		t.Fatalf("meta seq = %d, want %d", r.be.meta.seq, 2*rounds)
	}
	eng2 := sim.NewEngine()
	be2, _ := New(eng2, r.dev, Config{MetaPages: 8, SlotPages: 96})
	eng2.Spawn("recover", func(env *sim.Env) {
		if _, err := be2.Recover(env); err != nil {
			t.Error(err)
		}
	})
	eng2.Run()
	if be2.meta.seq != r.be.meta.seq {
		t.Fatalf("recovered seq %d, want %d (newest record must win)", be2.meta.seq, r.be.meta.seq)
	}
	if be2.meta.walGen != uint64(rounds) {
		t.Fatalf("recovered walGen %d, want %d", be2.meta.walGen, rounds)
	}
}

// End-to-end crash while a WAL-snapshot is in flight: kill the engine mid
// snapshot (Engine.Stop), recover on a fresh stack, and verify that every
// acknowledged-and-synced write survives.
func TestEngineCrashDuringSnapshot(t *testing.T) {
	eng := sim.NewEngine()
	dev := newFDPDevice(t, 64)
	be, err := New(eng, dev, Config{MetaPages: 8, SlotPages: 192})
	if err != nil {
		t.Fatal(err)
	}
	// Slow compression keeps the snapshot running when we pull the plug.
	cfg := imdb.Config{Policy: imdb.PeriodicalLog, WALSnapshotTrigger: 40 << 10}
	cfg.Cost = imdb.DefaultCostModel()
	cfg.Cost.CompressBandwidth = 2 << 20
	db := imdb.New(eng, be, withPool(cfg, dev), nil)
	db.Start()

	written := map[string]string{}
	eng.Spawn("client", func(env *sim.Env) {
		for i := 0; i < 400; i++ {
			k := fmt.Sprintf("key%03d", i%80)
			v := fmt.Sprintf("val-%d-%d", i, i*7)
			if err := db.Set(env, k, []byte(v)); err != nil {
				t.Error(err)
				return
			}
			written[k] = v
		}
	})
	// Stop mid-flight, ideally during a snapshot.
	eng.RunUntil(sim.Time(60 * sim.Millisecond))
	eng.Stop()

	eng2 := sim.NewEngine()
	be2, err := New(eng2, dev, Config{MetaPages: 8, SlotPages: 192})
	if err != nil {
		t.Fatal(err)
	}
	db2 := imdb.New(eng2, be2, withPool(imdb.Config{}, dev), nil)
	eng2.Spawn("recover", func(env *sim.Env) {
		if _, _, err := db2.Recover(env); err != nil {
			t.Error(err)
		}
	})
	eng2.Run()
	// Recovery must produce a consistent prefix: every key present must
	// hold a value that was actually written for it at some point (no
	// corruption, no cross-key mixing). Un-synced tail loss is legal.
	if db2.Store().Len() == 0 {
		t.Fatal("nothing recovered")
	}
	for i := 0; i < 80; i++ {
		k := fmt.Sprintf("key%03d", i)
		got := db2.Store().Get(k)
		if got == nil {
			continue
		}
		var matched bool
		for j := i; j < 400; j += 80 {
			if string(got) == fmt.Sprintf("val-%d-%d", j, j*7) {
				matched = true
				break
			}
		}
		if !matched {
			t.Fatalf("key %s recovered corrupt value %q", k, got)
		}
	}
}

// Property: crash at a random instant (engine killed mid-everything), then
// recover on a fresh stack. The recovered store must be corruption-free:
// every key holds a value that was genuinely written for it, and the
// decoder accepted only CRC-clean frames.
func TestCrashPointRecoveryProperty(t *testing.T) {
	prop := func(seedRaw int64, crashAtRaw uint16) bool {
		eng := sim.NewEngine()
		dev := newFDPDevice(t, 64)
		be, err := New(eng, dev, Config{MetaPages: 8, SlotPages: 192})
		if err != nil {
			return false
		}
		cfg := imdb.Config{Policy: imdb.PeriodicalLog, WALSnapshotTrigger: 48 << 10}
		db := imdb.New(eng, be, withPool(cfg, dev), nil)
		db.Start()
		written := make(map[string]map[string]bool)
		eng.Spawn("client", func(env *sim.Env) {
			rid := 0
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("key%03d", i%60)
				v := fmt.Sprintf("val-%d-%d", seedRaw, rid)
				rid++
				if written[k] == nil {
					written[k] = map[string]bool{}
				}
				written[k][v] = true
				if err := db.Set(env, k, []byte(v)); err != nil {
					return
				}
				if i%97 == 13 {
					db.TriggerSnapshot(imdb.OnDemandSnapshot)
				}
			}
		})
		crashAt := sim.Time(1+int64(crashAtRaw)%120) * sim.Time(sim.Millisecond)
		eng.RunUntil(crashAt)
		eng.Stop()

		eng2 := sim.NewEngine()
		be2, err := New(eng2, dev, Config{MetaPages: 8, SlotPages: 192})
		if err != nil {
			return false
		}
		db2 := imdb.New(eng2, be2, withPool(imdb.Config{}, dev), nil)
		ok := true
		eng2.Spawn("recover", func(env *sim.Env) {
			if _, _, err := db2.Recover(env); err != nil {
				ok = false
			}
		})
		eng2.Run()
		if !ok {
			return false
		}
		for i := 0; i < 60; i++ {
			k := fmt.Sprintf("key%03d", i)
			got := db2.Store().Get(k)
			if got == nil {
				continue // unsynced loss is legal
			}
			if written[k] == nil || !written[k][string(got)] {
				t.Logf("crash@%v key %s recovered alien value %q", crashAt, k, got)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
