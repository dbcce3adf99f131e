package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/slimio/slimio/internal/bufpool"
	"github.com/slimio/slimio/internal/fdp"
	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/nand"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/ssd"
	"github.com/slimio/slimio/internal/wal"
)

const testPageSize = 512

func newFDPDevice(t *testing.T, blocksPerDie int) *ssd.Device {
	t.Helper()
	geo := nand.Geometry{Channels: 2, DiesPerChannel: 2, BlocksPerDie: blocksPerDie, PagesPerBlock: 16, PageSize: testPageSize}
	arr, err := nand.New(geo, nand.DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	f, err := fdp.New(arr, fdp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return ssd.New(f, ssd.Config{})
}

func newConvDevice(t *testing.T, blocksPerDie int) *ssd.Device {
	t.Helper()
	geo := nand.Geometry{Channels: 2, DiesPerChannel: 2, BlocksPerDie: blocksPerDie, PagesPerBlock: 16, PageSize: testPageSize}
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

type rig struct {
	eng *sim.Engine
	dev *ssd.Device
	be  *Backend
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.NewEngine()
	dev := newFDPDevice(t, 32)
	be, err := New(eng, dev, Config{MetaPages: 8, SlotPages: 96})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{eng: eng, dev: dev, be: be}
}

func (r *rig) run(t *testing.T, fn func(env *sim.Env)) {
	t.Helper()
	r.eng.Spawn("test", fn)
	r.eng.Run()
}

func TestLayoutComputation(t *testing.T) {
	lay, err := computeLayout(1000, Config{MetaPages: 10, SlotPages: 100})
	if err != nil {
		t.Fatal(err)
	}
	if lay.metaPages != 10 || lay.slotStart[0] != 10 || lay.slotStart[1] != 110 || lay.slotStart[2] != 210 {
		t.Fatalf("layout = %+v", lay)
	}
	if lay.walStart != 310 || lay.walPages != 690 {
		t.Fatalf("wal region = %d+%d", lay.walStart, lay.walPages)
	}
	if _, err := computeLayout(100, Config{MetaPages: 10, SlotPages: 40}); err == nil {
		t.Fatal("oversized slots accepted")
	}
}

func TestSplitWrap(t *testing.T) {
	runs := splitWrap(100, 50, 10, 20)
	if len(runs) != 1 || runs[0].start != 110 || runs[0].n != 20 {
		t.Fatalf("no-wrap runs = %+v", runs)
	}
	runs = splitWrap(100, 50, 45, 10)
	if len(runs) != 2 || runs[0].start != 145 || runs[0].n != 5 || runs[1].start != 100 || runs[1].n != 5 {
		t.Fatalf("wrap runs = %+v", runs)
	}
	runs = splitWrap(100, 50, 60, 5) // offset beyond region wraps in
	if len(runs) != 1 || runs[0].start != 110 {
		t.Fatalf("mod runs = %+v", runs)
	}
}

func TestMetaRecordRoundTrip(t *testing.T) {
	m := metaRecord{
		seq:       42,
		slotRoles: [3]slotRole{roleWALSnap, roleReserve, roleOnDemand},
		slotBytes: [3]int64{12345, 0, 999},
		walHead:   77,
		walGen:    3,
	}
	enc := m.encode()
	got, err := decodeMetaRecord(enc)
	if err != nil {
		t.Fatal(err)
	}
	if *got != m {
		t.Fatalf("round trip: %+v != %+v", *got, m)
	}
	// Any single-byte corruption must be rejected.
	for i := range enc {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0xFF
		if dec, err := decodeMetaRecord(bad); err == nil && *dec != m {
			t.Fatalf("corruption at byte %d undetected", i)
		}
	}
	if _, err := decodeMetaRecord(enc[:10]); err == nil {
		t.Fatal("short record accepted")
	}
}

func TestWALAppendSyncRecover(t *testing.T) {
	r := newRig(t)
	var want [][]byte
	r.run(t, func(env *sim.Env) {
		var stream []byte
		for i := 0; i < 40; i++ {
			k := []byte(fmt.Sprintf("key%02d", i))
			v := bytes.Repeat([]byte{byte(i)}, 100+i)
			want = append(want, v)
			stream = wal.AppendRecord(stream[:0], wal.OpSet, k, v)
			if err := r.be.WALAppend(env, r.chain(stream)); err != nil {
				t.Error(err)
				return
			}
		}
		if err := r.be.WALSync(env); err != nil {
			t.Error(err)
			return
		}
	})
	// Recover through a fresh backend over the same device.
	eng2 := sim.NewEngine()
	be2, err := New(eng2, r.dev, Config{MetaPages: 8, SlotPages: 96})
	if err != nil {
		t.Fatal(err)
	}
	var rec *imdb.Recovered
	eng2.Spawn("recover", func(env *sim.Env) {
		var rerr error
		rec, rerr = be2.Recover(env)
		if rerr != nil {
			t.Error(rerr)
		}
	})
	eng2.Run()
	var recs []wal.Record
	for _, seg := range rec.WAL {
		recs = append(recs, seg.Records()...)
	}
	if len(recs) != 40 {
		t.Fatalf("recovered %d WAL records, want 40", len(recs))
	}
	for i, rc := range recs {
		if !bytes.Equal(rc.Value, want[i]) {
			t.Fatalf("record %d corrupted", i)
		}
	}
}

func TestWALTailSyncedWithoutFullPage(t *testing.T) {
	// A record smaller than a page must survive via the tail rewrite.
	r := newRig(t)
	r.run(t, func(env *sim.Env) {
		data := wal.AppendRecord(nil, wal.OpSet, []byte("k"), []byte("small"))
		if err := r.be.WALAppend(env, r.chain(data)); err != nil {
			t.Error(err)
			return
		}
		if r.be.Stats().WALPageWrites != 0 {
			t.Error("partial record should not have written a full page")
		}
		if err := r.be.WALSync(env); err != nil {
			t.Error(err)
			return
		}
		if r.be.Stats().WALTailRewrites != 1 {
			t.Error("sync did not write the tail")
		}
		// Second sync with no new data: no extra write.
		if err := r.be.WALSync(env); err != nil {
			t.Error(err)
			return
		}
		if r.be.Stats().WALTailRewrites != 1 {
			t.Error("idempotent sync rewrote the tail")
		}
	})
}

func TestWALRotateDiscardTrimsAndAdvances(t *testing.T) {
	r := newRig(t)
	r.run(t, func(env *sim.Env) {
		payload := bytes.Repeat([]byte("w"), 5*testPageSize)
		if err := r.be.WALAppend(env, r.chain(payload)); err != nil {
			t.Error(err)
			return
		}
		if err := r.be.WALRotate(env); err != nil {
			t.Error(err)
			return
		}
		if r.be.WALDurableSize() != 0 {
			t.Error("new segment not empty after rotate")
		}
		if r.be.sealedPages() != 5 {
			t.Errorf("sealed pages = %d, want 5", r.be.sealedPages())
		}
		// New segment lands after the sealed one.
		if err := r.be.WALAppend(env, r.chain(payload)); err != nil {
			t.Error(err)
			return
		}
		if err := r.be.WALDiscardOld(env); err != nil {
			t.Error(err)
			return
		}
		if r.be.Stats().DeallocatedPages < 5 {
			t.Errorf("deallocated %d pages, want >= 5", r.be.Stats().DeallocatedPages)
		}
		if r.be.meta.walGen != 1 {
			t.Errorf("walGen = %d", r.be.meta.walGen)
		}
		if r.be.sealedPages() != 0 {
			t.Error("sealed segments not cleared")
		}
		// Current segment must be untouched by the discard.
		if r.be.WALDurableSize() != int64(len(payload)) {
			t.Errorf("open segment size = %d", r.be.WALDurableSize())
		}
	})
}

func TestWALRegionFullErrors(t *testing.T) {
	r := newRig(t)
	r.run(t, func(env *sim.Env) {
		huge := bytes.Repeat([]byte("x"), int(r.be.lay.walPages+1)*testPageSize)
		if err := r.be.WALAppend(env, r.chain(huge)); !errors.Is(err, imdb.ErrLogFull) {
			t.Errorf("overfull WAL append = %v, want ErrLogFull", err)
		}
	})
}

func TestSnapshotSlotPromotion(t *testing.T) {
	r := newRig(t)
	img1 := bytes.Repeat([]byte("A"), 3*testPageSize+17)
	img2 := bytes.Repeat([]byte("B"), 2*testPageSize+5)
	r.run(t, func(env *sim.Env) {
		// First WAL-snapshot goes to slot 0 (first reserve).
		sink, err := r.be.BeginSnapshot(env, imdb.WALSnapshot)
		if err != nil {
			t.Error(err)
			return
		}
		if err := sink.Write(env, img1); err != nil {
			t.Error(err)
			return
		}
		if err := sink.Commit(env); err != nil {
			t.Error(err)
			return
		}
		slots := r.be.Slots()
		if slots[0].Role != "wal-snapshot" || slots[0].Used != int64(len(img1)) {
			t.Errorf("slot0 = %+v", slots[0])
		}
		// Second WAL-snapshot must use another reserve slot, then demote
		// slot 0 back to reserve.
		sink2, err := r.be.BeginSnapshot(env, imdb.WALSnapshot)
		if err != nil {
			t.Error(err)
			return
		}
		if err := sink2.Write(env, img2); err != nil {
			t.Error(err)
			return
		}
		if err := sink2.Commit(env); err != nil {
			t.Error(err)
			return
		}
		slots = r.be.Slots()
		if slots[0].Role != "reserve" {
			t.Errorf("old slot not demoted: %+v", slots[0])
		}
		if slots[1].Role != "wal-snapshot" || slots[1].Used != int64(len(img2)) {
			t.Errorf("slot1 = %+v", slots[1])
		}
		if r.be.Stats().Promotions != 2 {
			t.Errorf("promotions = %d", r.be.Stats().Promotions)
		}
	})
}

func TestBothSnapshotKindsCoexist(t *testing.T) {
	r := newRig(t)
	r.run(t, func(env *sim.Env) {
		for _, kind := range []imdb.SnapshotKind{imdb.WALSnapshot, imdb.OnDemandSnapshot} {
			sink, err := r.be.BeginSnapshot(env, kind)
			if err != nil {
				t.Error(err)
				return
			}
			if err := sink.Write(env, bytes.Repeat([]byte{byte(kind + 1)}, testPageSize*2)); err != nil {
				t.Error(err)
				return
			}
			if err := sink.Commit(env); err != nil {
				t.Error(err)
				return
			}
		}
		roles := map[string]bool{}
		for _, s := range r.be.Slots() {
			roles[s.Role] = true
		}
		if !roles["wal-snapshot"] || !roles["on-demand"] || !roles["reserve"] {
			t.Errorf("slots = %+v", r.be.Slots())
		}
	})
}

func TestAbortPreservesOldSnapshot(t *testing.T) {
	// The Reserve-slot design's whole point: a failed snapshot never
	// damages the previous one.
	r := newRig(t)
	img := bytes.Repeat([]byte("GOOD"), testPageSize)
	r.run(t, func(env *sim.Env) {
		sink, _ := r.be.BeginSnapshot(env, imdb.WALSnapshot)
		if err := sink.Write(env, img); err != nil {
			t.Error(err)
			return
		}
		if err := sink.Commit(env); err != nil {
			t.Error(err)
			return
		}
		// Second snapshot fails midway.
		sink2, _ := r.be.BeginSnapshot(env, imdb.WALSnapshot)
		if err := sink2.Write(env, bytes.Repeat([]byte("BAD"), 2*testPageSize)); err != nil {
			t.Error(err)
			return
		}
		if err := sink2.Abort(env); err != nil {
			t.Error(err)
			return
		}
	})
	// Recovery must return the good image.
	eng2 := sim.NewEngine()
	be2, _ := New(eng2, r.dev, Config{MetaPages: 8, SlotPages: 96})
	eng2.Spawn("recover", func(env *sim.Env) {
		rec, err := be2.Recover(env)
		if err != nil {
			t.Error(err)
			return
		}
		if !rec.HaveSnapshot {
			t.Error("good snapshot lost after abort")
			return
		}
		if !bytes.Equal(bytes.Join(rec.Snapshot, nil), img) {
			t.Error("recovered image differs")
		}
	})
	eng2.Run()
}

func TestSnapshotExceedingSlotFails(t *testing.T) {
	r := newRig(t)
	r.run(t, func(env *sim.Env) {
		sink, _ := r.be.BeginSnapshot(env, imdb.WALSnapshot)
		big := bytes.Repeat([]byte("x"), int(r.be.lay.slotPages+1)*testPageSize)
		if err := sink.Write(env, big); err == nil {
			t.Error("oversized snapshot accepted")
		}
	})
}

func TestNoReserveSlotError(t *testing.T) {
	r := newRig(t)
	r.run(t, func(env *sim.Env) {
		// Exhaust reserve slots by leaving two snapshots committed and one
		// sink open (holding the third slot's reserve role is not modeled;
		// instead commit three distinct kinds is impossible, so fake it by
		// marking roles directly).
		r.be.meta.slotRoles = [3]slotRole{roleWALSnap, roleOnDemand, roleWALSnap}
		if _, err := r.be.BeginSnapshot(env, imdb.WALSnapshot); err == nil {
			t.Error("BeginSnapshot without reserve slot succeeded")
		}
	})
}

func TestRecoverFreshDevice(t *testing.T) {
	r := newRig(t)
	r.run(t, func(env *sim.Env) {
		rec, err := r.be.Recover(env)
		if err != nil {
			t.Error(err)
			return
		}
		var total int64
		for _, seg := range rec.WAL {
			total += seg.Len
		}
		if rec.HaveSnapshot || total != 0 {
			t.Error("fresh device recovered data")
		}
	})
}

func TestRecoverTornWALTail(t *testing.T) {
	// Simulate a crash mid-append: full pages durable, tail never synced.
	r := newRig(t)
	var wantRecords int
	r.run(t, func(env *sim.Env) {
		var stream []byte
		rec := wal.AppendRecord(nil, wal.OpSet, []byte("key"), bytes.Repeat([]byte("v"), 300))
		for len(stream) < 4*testPageSize {
			stream = append(stream, rec...)
		}
		// How many whole records fit in the durable full pages?
		fullBytes := (len(stream) / testPageSize) * testPageSize
		wantRecords = fullBytes / len(rec)
		if err := r.be.WALAppend(env, r.chain(stream)); err != nil {
			t.Error(err)
		}
		// No WALSync: crash loses the partial tail page.
	})
	eng2 := sim.NewEngine()
	be2, _ := New(eng2, r.dev, Config{MetaPages: 8, SlotPages: 96})
	eng2.Spawn("recover", func(env *sim.Env) {
		rec, err := be2.Recover(env)
		if err != nil {
			t.Error(err)
			return
		}
		var recs []wal.Record
		for _, seg := range rec.WAL {
			recs = append(recs, seg.Records()...)
		}
		if len(recs) != wantRecords {
			t.Errorf("recovered %d records, want %d (durable prefix)", len(recs), wantRecords)
		}
	})
	eng2.Run()
}

// After recovery the open segment ends mid-page. The first append must
// continue that page in a segment holding recovery's bytes below its offset,
// as the engine's restarted buffer does; a chain that starts anywhere else is
// refused with every reference left to its caller. The continuation must read
// back seamlessly, and nothing may stay in flight once all is torn down.
func TestRecoverContinuesAppending(t *testing.T) {
	r := newRig(t)
	pool := r.dev.FTL().Array().Pool()
	recA := wal.AppendRecord(nil, wal.OpSet, []byte("a"), bytes.Repeat([]byte("1"), 700))
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
	be2, _ := New(eng2, r.dev, Config{MetaPages: 8, SlotPages: 96})
	buf := wal.NewBuffer(pool)
	eng2.Spawn("continue", func(env *sim.Env) {
		rec, err := be2.Recover(env)
		if err != nil {
			t.Error(err)
			return
		}
		open := &rec.WAL[len(rec.WAL)-1]
		from := open.Prefix - open.Prefix%testPageSize
		if from == open.Prefix {
			t.Error("rig: the recovered WAL does not end mid-page")
		}
		prefix := open.AppendRange(nil, from, int(open.Prefix-from))
		for _, tc := range []struct {
			name  string
			chain func() wal.Chain
		}{
			{"a chain from byte 0", func() wal.Chain {
				return wal.NewChain(pool, wal.AppendRecord(nil, wal.OpDel, []byte("x"), nil))
			}},
			{"other bytes below the offset", func() wal.Chain {
				c := wal.NewChain(pool, make([]byte, len(prefix)+1))
				c.Off = len(prefix)
				return c
			}},
		} {
			held := pool.InFlight()
			c := tc.chain()
			if err := be2.WALAppend(env, c); err == nil || errors.Is(err, imdb.ErrLogFull) {
				t.Errorf("%s: an append that does not continue the open page returned %v, want a refusal that is no full log", tc.name, err)
				continue
			}
			c.Release()
			if n := pool.InFlight(); n != held {
				t.Errorf("%s: %d segments in flight after the refused chain's release, want %d", tc.name, n, held)
			}
		}
		buf.Restart(prefix)
		buf.Append(wal.OpSet, []byte("b"), bytes.Repeat([]byte("2"), 700))
		if err := be2.WALAppend(env, buf.Drain()); err != nil {
			t.Error(err)
			return
		}
		if err := be2.WALSync(env); err != nil {
			t.Error(err)
		}
	})
	eng2.Run()
	buf.Close()
	eng3 := sim.NewEngine()
	be3, _ := New(eng3, r.dev, Config{MetaPages: 8, SlotPages: 96})
	eng3.Spawn("verify", func(env *sim.Env) {
		rec, err := be3.Recover(env)
		if err != nil {
			t.Error(err)
			return
		}
		var recs []wal.Record
		for _, seg := range rec.WAL {
			recs = append(recs, seg.Records()...)
		}
		if len(recs) != 2 {
			t.Errorf("recovered %d records, want 2", len(recs))
			return
		}
		if string(recs[0].Key) != "a" || string(recs[1].Key) != "b" {
			t.Error("record order broken across recovery")
		}
	})
	eng3.Run()
	r.be.Close()
	be2.Close()
	be3.Close()
	r.dev.FTL().Array().ReleaseStored()
	if n := pool.InFlight(); n != 0 {
		t.Fatalf("%d pooled segments in flight after teardown", n)
	}
}

// unreadablePage fails every read of the physical page that stores data (a
// device read's alias of the stored bytes) with a permanent media error.
type unreadablePage struct {
	arr  *nand.Array
	data []byte
}

func (h unreadablePage) ReadFault(_ sim.Time, ppa nand.PPA) error {
	if b := h.arr.StoredRef(ppa).B; len(b) > 0 && &b[0] == &h.data[0] {
		return &nand.DeviceError{Status: nand.StatusUnrecoveredRead, Op: "read", PPA: ppa}
	}
	return nil
}

func (unreadablePage) ProgramFault(sim.Time, sim.Time, nand.PPA, []byte) nand.ProgramDecision {
	return nand.ProgramDecision{}
}

func (unreadablePage) EraseFault(sim.Time, int, int) error { return nil }

// A snapshot-slot page that stays unreadable through readSequential's
// page-by-page fallback is zero-filled and reported; the image decodes up
// to the hole, and the WAL written after the snapshot still replays.
func TestRecoverUnreadableSnapshotPage(t *testing.T) {
	eng := sim.NewEngine()
	dev := newFDPDevice(t, 64)
	cfg := Config{MetaPages: 8, SlotPages: 512}
	be, err := New(eng, dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	db := imdb.New(eng, be, withPool(imdb.Config{Policy: imdb.AlwaysLog}, dev), nil)
	db.Start()
	const snapKeys, walKeys = 300, 20
	rng := rand.New(rand.NewSource(1))
	eng.Spawn("client", func(env *sim.Env) {
		// Incompressible values spread the image over several chunks.
		for i := 0; i < snapKeys; i++ {
			v := make([]byte, 512)
			rng.Read(v)
			if err := db.Set(env, fmt.Sprintf("snap%03d", i), v); err != nil {
				t.Error(err)
				return
			}
		}
		db.TriggerSnapshot(imdb.WALSnapshot).Reply.Wait(env)
		db.WaitNoSnapshot(env)
		for i := 0; i < walKeys; i++ {
			if err := db.Set(env, fmt.Sprintf("wal%02d", i), []byte("after")); err != nil {
				t.Error(err)
				return
			}
		}
		if err := db.Shutdown(env); err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	be.Close()

	slot := -1
	for _, s := range be.Slots() {
		if s.Role == "wal-snapshot" {
			slot = s.Index
		}
	}
	if slot < 0 {
		t.Fatal("no WAL-Snapshot committed")
	}
	info := be.Slots()[slot]
	// A page three quarters into the image: chunks before it decode.
	lpa := info.Start + info.Used/testPageSize*3/4
	pages, _, err := dev.ReadPages(0, lpa, 1)
	if err != nil {
		t.Fatal(err)
	}
	dev.FTL().Array().SetFaultHook(unreadablePage{arr: dev.FTL().Array(), data: pages[0]})

	eng2 := sim.NewEngine()
	be2, _ := New(eng2, dev, cfg)
	db2 := imdb.New(eng2, be2, withPool(imdb.Config{}, dev), nil)
	var entries, walRecords int64
	eng2.Spawn("recover", func(env *sim.Env) {
		entries, walRecords, err = db2.Recover(env)
	})
	eng2.Run()
	if err != nil {
		t.Fatal(err)
	}
	notes := db2.LastRecovery().Degraded
	want := fmt.Sprintf("snapshot slot %d: 1 unreadable pages zero-filled", slot)
	if len(notes) != 2 || notes[0] != want || !strings.HasPrefix(notes[1], fmt.Sprintf("snapshot decode stopped after %d entries", entries)) {
		t.Fatalf("Degraded = %q, want %q then the decode stop", notes, want)
	}
	if entries == 0 || entries >= snapKeys {
		t.Errorf("snapshot decoded %d of %d entries, want the chunks before the hole", entries, snapKeys)
	}
	if walRecords != walKeys {
		t.Errorf("replayed %d WAL records, want %d", walRecords, walKeys)
	}
	for i := 0; i < walKeys; i++ {
		if got := db2.Store().Get(fmt.Sprintf("wal%02d", i)); string(got) != "after" {
			t.Fatalf("wal%02d = %q after replay", i, got)
		}
	}
}

func TestWALWrapsAroundRegion(t *testing.T) {
	r := newRig(t)
	region := r.be.lay.walPages
	payload := bytes.Repeat([]byte("r"), int(region*2/3)*testPageSize)
	r.run(t, func(env *sim.Env) {
		for round := 0; round < 4; round++ {
			if err := r.be.WALAppend(env, r.chain(payload)); err != nil {
				t.Errorf("round %d: %v", round, err)
				return
			}
			if err := r.be.WALRotate(env); err != nil {
				t.Error(err)
				return
			}
			if err := r.be.WALDiscardOld(env); err != nil {
				t.Error(err)
				return
			}
		}
		if r.be.meta.walGen != 4 {
			t.Errorf("walGen = %d", r.be.meta.walGen)
		}
	})
}

// End-to-end: full engine over SlimIO on FDP, through WAL-snapshots, clean
// shutdown, recovery — and WAF must be exactly 1.00 (the headline claim).
func TestEndToEndEngineWAFOne(t *testing.T) {
	eng := sim.NewEngine()
	dev := newFDPDevice(t, 64)
	be, err := New(eng, dev, Config{MetaPages: 8, SlotPages: 192})
	if err != nil {
		t.Fatal(err)
	}
	db := imdb.New(eng, be, withPool(imdb.Config{Policy: imdb.PeriodicalLog, WALSnapshotTrigger: 48 << 10}, dev), nil)
	db.Start()
	final := map[string]string{}
	eng.Spawn("client", func(env *sim.Env) {
		for i := 0; i < 600; i++ {
			k := fmt.Sprintf("key%03d", i%80)
			v := fmt.Sprintf("value-%d", i)
			final[k] = v
			if err := db.Set(env, k, []byte(v)); err != nil {
				t.Error(err)
				return
			}
		}
		db.TriggerSnapshot(imdb.OnDemandSnapshot)
		db.Shutdown(env)
	})
	eng.Run()
	if len(db.Stats().Snapshots) == 0 {
		t.Fatal("no snapshots ran")
	}
	if waf := dev.Stats().WAF(); waf != 1.0 {
		t.Fatalf("WAF = %.4f, want exactly 1.00 on FDP with lifetime separation", waf)
	}

	db2 := imdb.New(eng, be, withPool(imdb.Config{}, dev), nil)
	eng.Spawn("recover", func(env *sim.Env) {
		if _, _, err := db2.Recover(env); err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	if db2.Store().Len() != len(final) {
		t.Fatalf("recovered %d keys, want %d", db2.Store().Len(), len(final))
	}
	for k, v := range final {
		if got := db2.Store().Get(k); string(got) != v {
			t.Fatalf("key %s: %q != %q", k, got, v)
		}
	}
}

// The same end-to-end flow on a conventional device still works (SlimIO
// without FDP, the Figure 4 configuration) — only WAF may exceed 1.
func TestEndToEndConventionalDevice(t *testing.T) {
	eng := sim.NewEngine()
	dev := newConvDevice(t, 64)
	be, err := New(eng, dev, Config{MetaPages: 8, SlotPages: 192})
	if err != nil {
		t.Fatal(err)
	}
	db := imdb.New(eng, be, withPool(imdb.Config{Policy: imdb.AlwaysLog, WALSnapshotTrigger: 48 << 10}, dev), nil)
	db.Start()
	eng.Spawn("client", func(env *sim.Env) {
		for i := 0; i < 400; i++ {
			if err := db.Set(env, fmt.Sprintf("key%03d", i%60), bytes.Repeat([]byte("z"), 200)); err != nil {
				t.Error(err)
				return
			}
		}
		db.Shutdown(env)
	})
	eng.Run()
	if db.Stats().Sets != 400 {
		t.Fatalf("sets = %d", db.Stats().Sets)
	}
}

func TestRecoverFromSpecificKind(t *testing.T) {
	r := newRig(t)
	walImg := bytes.Repeat([]byte("W"), testPageSize+9)
	odImg := bytes.Repeat([]byte("O"), testPageSize+5)
	r.run(t, func(env *sim.Env) {
		for _, c := range []struct {
			kind imdb.SnapshotKind
			img  []byte
		}{{imdb.WALSnapshot, walImg}, {imdb.OnDemandSnapshot, odImg}} {
			sink, err := r.be.BeginSnapshot(env, c.kind)
			if err != nil {
				t.Error(err)
				return
			}
			if err := sink.Write(env, c.img); err != nil {
				t.Error(err)
				return
			}
			if err := sink.Commit(env); err != nil {
				t.Error(err)
				return
			}
		}
	})
	check := func(kind imdb.SnapshotKind, want []byte) {
		eng2 := sim.NewEngine()
		be2, _ := New(eng2, r.dev, Config{MetaPages: 8, SlotPages: 96})
		eng2.Spawn("recover", func(env *sim.Env) {
			rec, err := be2.RecoverFrom(env, kind)
			if err != nil {
				t.Error(err)
				return
			}
			if !rec.HaveSnapshot || rec.Kind != kind {
				t.Errorf("kind %v: got have=%v kind=%v", kind, rec.HaveSnapshot, rec.Kind)
				return
			}
			if !bytes.Equal(bytes.Join(rec.Snapshot, nil), want) {
				t.Errorf("kind %v: wrong image recovered", kind)
			}
			// The image comes back as the pages it was read as, the last one
			// cut to the image's length.
			for i, run := range rec.Snapshot[:len(rec.Snapshot)-1] {
				if len(run) != testPageSize {
					t.Errorf("kind %v: run %d is %d bytes, want one %d-byte page", kind, i, len(run), testPageSize)
				}
			}
		})
		eng2.Run()
	}
	check(imdb.WALSnapshot, walImg)
	check(imdb.OnDemandSnapshot, odImg)
}

// chain lays raw framed bytes out as the engine's wal.Buffer would for
// r.be: past the fill of the backend's own tail segment, then in fresh pool
// segments (WALAppend consumes the references on success; on error they
// return to the caller, which these tests simply drop — no quiescence
// assert here).
func (r *rig) chain(data []byte) wal.Chain {
	be := r.be
	ps := int(be.pageSize)
	c := wal.Chain{Off: int(be.walBytes) % ps}
	if c.Off > 0 {
		be.walTailSeg.Retain()
		c.Segs = []*bufpool.Segment{be.walTailSeg}
		c.End = c.Off
	}
	for len(data) > 0 {
		if len(c.Segs) == 0 || c.End == ps {
			c.Segs = append(c.Segs, be.pool.Get())
			c.End = 0
		}
		n := copy(c.Segs[len(c.Segs)-1].Bytes()[c.End:], data)
		c.End += n
		data = data[n:]
	}
	return c
}

// withPool points the engine's WAL buffer at the device's page pool, the
// way production wiring does (exp.RunCell, slimio.New).
func withPool(cfg imdb.Config, dev *ssd.Device) imdb.Config {
	cfg.Pool = dev.FTL().Array().Pool()
	return cfg
}
