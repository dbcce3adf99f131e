package imdb

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/wal"
)

// memBackend is an in-memory Backend with fixed per-call latencies, letting
// engine tests run without a device below them.
type memBackend struct {
	eng        *sim.Engine
	walData    []byte
	walSynced  int
	sealed     [][]byte
	snapshots  map[SnapshotKind][]byte
	walLatency sim.Duration
	beginCount int
	failCommit bool
}

func newMemBackend(eng *sim.Engine) *memBackend {
	return &memBackend{eng: eng, snapshots: make(map[SnapshotKind][]byte), walLatency: 50 * sim.Microsecond}
}

func (m *memBackend) Label() string { return "mem" }

func (m *memBackend) WALAppend(env *sim.Env, data wal.Chain) error {
	env.Sleep(m.walLatency)
	m.walData = data.AppendTo(m.walData)
	data.Release()
	return nil
}

func (m *memBackend) WALSync(env *sim.Env) error {
	env.Sleep(m.walLatency)
	m.walSynced = len(m.walData)
	return nil
}

func (m *memBackend) WALDurableSize() int64 { return int64(len(m.walData)) }

func (m *memBackend) WALRotate(env *sim.Env) error {
	m.sealed = append(m.sealed, m.walData)
	m.walData = nil
	m.walSynced = 0
	return nil
}

func (m *memBackend) WALDiscardOld(env *sim.Env) error {
	m.sealed = nil
	return nil
}

type memSink struct {
	be   *memBackend
	kind SnapshotKind
	buf  []byte
}

func (s *memSink) Write(env *sim.Env, chunk []byte) error {
	env.Sleep(20 * sim.Microsecond)
	s.buf = append(s.buf, chunk...)
	return nil
}

func (s *memSink) Commit(env *sim.Env) error {
	if s.be.failCommit {
		return fmt.Errorf("mem: injected commit failure")
	}
	env.Sleep(20 * sim.Microsecond)
	s.be.snapshots[s.kind] = s.buf
	return nil
}

func (s *memSink) Abort(env *sim.Env) error { return nil }

func (m *memBackend) BeginSnapshot(env *sim.Env, kind SnapshotKind) (SnapshotSink, error) {
	m.beginCount++
	return &memSink{be: m, kind: kind}, nil
}

// walOf decodes each of segs, a log segment held in one buffer, as a
// backend's Recover does.
func walOf(segs ...[]byte) []wal.Segment {
	out := make([]wal.Segment, len(segs))
	for i, seg := range segs {
		out[i] = wal.DecodeSegment([][]byte{seg})
	}
	return out
}

func (m *memBackend) Recover(env *sim.Env) (*Recovered, error) {
	rec := &Recovered{WAL: walOf(m.sealed...)}
	rec.WAL = append(rec.WAL, walOf(m.walData[:m.walSynced])...)
	if img, ok := m.snapshots[WALSnapshot]; ok {
		rec.HaveSnapshot = true
		rec.Kind = WALSnapshot
		rec.Snapshot = img
	} else if img, ok := m.snapshots[OnDemandSnapshot]; ok {
		rec.HaveSnapshot = true
		rec.Kind = OnDemandSnapshot
		rec.Snapshot = img
	}
	return rec, nil
}

type testRig struct {
	eng *sim.Engine
	be  *memBackend
	db  *Engine
}

func newTestRig(cfg Config) *testRig {
	eng := sim.NewEngine()
	be := newMemBackend(eng)
	db := New(eng, be, cfg, nil)
	db.Start()
	return &testRig{eng: eng, be: be, db: db}
}

func value(i int, size int) []byte {
	return bytes.Repeat([]byte{byte('a' + i%26)}, size)
}

func TestSetGetRoundTrip(t *testing.T) {
	r := newTestRig(Config{Policy: PeriodicalLog})
	r.eng.Spawn("client", func(env *sim.Env) {
		if err := r.db.Set(env, "k1", []byte("v1")); err != nil {
			t.Error(err)
			return
		}
		got, err := r.db.Get(env, "k1")
		if err != nil || string(got) != "v1" {
			t.Errorf("get = %q, %v", got, err)
		}
		if got, _ := r.db.Get(env, "missing"); got != nil {
			t.Error("missing key returned data")
		}
		r.db.Shutdown(env)
	})
	r.eng.Run()
	s := r.db.Stats()
	if s.Sets != 1 || s.Gets != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPeriodicalFlushOnIdle(t *testing.T) {
	r := newTestRig(Config{Policy: PeriodicalLog})
	r.eng.Spawn("client", func(env *sim.Env) {
		for i := 0; i < 10; i++ {
			if err := r.db.Set(env, fmt.Sprintf("k%d", i), value(i, 32)); err != nil {
				t.Error(err)
				return
			}
		}
		// Blocking Set leaves the queue idle between commands, so the
		// engine flushes opportunistically; by now the WAL must hold data.
		if r.be.WALDurableSize() == 0 {
			t.Error("idle flush never happened")
		}
		r.db.Shutdown(env)
	})
	r.eng.Run()
	recs := walOf(r.be.walData)[0].Records
	if len(recs) != 10 {
		t.Fatalf("WAL has %d records, want 10", len(recs))
	}
}

func TestAlwaysLogDurableBeforeReply(t *testing.T) {
	r := newTestRig(Config{Policy: AlwaysLog})
	r.eng.Spawn("client", func(env *sim.Env) {
		for i := 0; i < 5; i++ {
			if err := r.db.Set(env, fmt.Sprintf("k%d", i), []byte("v")); err != nil {
				t.Error(err)
				return
			}
			// Every reply implies durability: synced WAL covers the record.
			recs := walOf(r.be.walData[:r.be.walSynced])[0].Records
			if len(recs) != i+1 {
				t.Errorf("after set %d: %d durable records", i, len(recs))
			}
		}
		r.db.Shutdown(env)
	})
	r.eng.Run()
}

func TestAlwaysLogGroupCommit(t *testing.T) {
	r := newTestRig(Config{Policy: AlwaysLog, BatchMax: 64})
	const clients = 32
	for c := 0; c < clients; c++ {
		c := c
		r.eng.Spawn(fmt.Sprintf("cl%d", c), func(env *sim.Env) {
			for i := 0; i < 4; i++ {
				if err := r.db.Set(env, fmt.Sprintf("c%d-k%d", c, i), value(i, 64)); err != nil {
					t.Error(err)
					return
				}
			}
		})
	}
	r.eng.Run()
	s := r.db.Stats()
	if s.WALFlushes >= s.Sets {
		t.Fatalf("flushes=%d sets=%d: no group commit", s.WALFlushes, s.Sets)
	}
}

func TestOnDemandSnapshotRoundTrip(t *testing.T) {
	r := newTestRig(Config{Policy: PeriodicalLog})
	want := map[string]string{}
	r.eng.Spawn("client", func(env *sim.Env) {
		for i := 0; i < 200; i++ {
			k, v := fmt.Sprintf("key%03d", i), fmt.Sprintf("val%03d", i)
			want[k] = v
			if err := r.db.Set(env, k, []byte(v)); err != nil {
				t.Error(err)
				return
			}
		}
		r.db.TriggerSnapshot(OnDemandSnapshot)
		r.db.Shutdown(env) // waits for the snapshot child
	})
	r.eng.Run()
	st := r.db.Stats()
	if len(st.Snapshots) != 1 {
		t.Fatalf("snapshots = %d, want 1", len(st.Snapshots))
	}
	ev := st.Snapshots[0]
	if ev.Kind != OnDemandSnapshot || ev.Entries != 200 || ev.Duration <= 0 {
		t.Fatalf("event = %+v", ev)
	}
	if _, ok := r.be.snapshots[OnDemandSnapshot]; !ok {
		t.Fatal("backend has no on-demand snapshot")
	}
}

func TestWALSnapshotTriggerAndReset(t *testing.T) {
	// Small trigger: after enough sets, a WAL-Snapshot must run and the WAL
	// must restart (much smaller than the pre-snapshot log).
	r := newTestRig(Config{Policy: PeriodicalLog, WALSnapshotTrigger: 16 << 10})
	r.eng.Spawn("client", func(env *sim.Env) {
		for i := 0; i < 400; i++ {
			if err := r.db.Set(env, fmt.Sprintf("key%03d", i%100), value(i, 128)); err != nil {
				t.Error(err)
				return
			}
		}
		r.db.Shutdown(env)
	})
	r.eng.Run()
	st := r.db.Stats()
	if len(st.Snapshots) == 0 {
		t.Fatal("WAL-Snapshot never triggered")
	}
	for _, ev := range st.Snapshots {
		if ev.Kind != WALSnapshot {
			t.Fatalf("unexpected snapshot kind %v", ev.Kind)
		}
	}
	// After the last snapshot + remaining traffic, the WAL must be far
	// smaller than total bytes logged.
	if r.be.WALDurableSize() >= st.WALBytes {
		t.Fatalf("WAL never reset: durable=%d total-flushed=%d", r.be.WALDurableSize(), st.WALBytes)
	}
}

func TestRecoveryEqualsFinalState(t *testing.T) {
	// Write through snapshots and WAL resets, shut down cleanly, recover
	// into a fresh engine, and compare every key.
	r := newTestRig(Config{Policy: PeriodicalLog, WALSnapshotTrigger: 8 << 10})
	final := map[string]string{}
	r.eng.Spawn("client", func(env *sim.Env) {
		for i := 0; i < 500; i++ {
			k := fmt.Sprintf("key%03d", i%70)
			v := fmt.Sprintf("val-%d-%d", i, i*i)
			final[k] = v
			if err := r.db.Set(env, k, []byte(v)); err != nil {
				t.Error(err)
				return
			}
		}
		r.db.Shutdown(env)
	})
	r.eng.Run()
	if len(r.db.Stats().Snapshots) == 0 {
		t.Fatal("test needs at least one WAL-Snapshot to be meaningful")
	}

	db2 := New(r.eng, r.be, Config{Policy: PeriodicalLog}, nil)
	r.eng.Spawn("recover", func(env *sim.Env) {
		entries, walRecs, err := db2.Recover(env)
		if err != nil {
			t.Error(err)
			return
		}
		if entries == 0 {
			t.Error("recovery loaded no snapshot entries")
		}
		_ = walRecs
	})
	r.eng.Run()
	if db2.Store().Len() != len(final) {
		t.Fatalf("recovered %d keys, want %d", db2.Store().Len(), len(final))
	}
	for k, v := range final {
		if got := db2.Store().Get(k); string(got) != v {
			t.Fatalf("key %s: recovered %q, want %q", k, got, v)
		}
	}
}

func TestCOWAccountingDuringSnapshot(t *testing.T) {
	// A long snapshot with concurrent overwrites must copy pages and raise
	// peak memory above base.
	cfg := Config{Policy: PeriodicalLog}
	cfg.Cost = DefaultCostModel()
	cfg.Cost.CompressBandwidth = 4 << 20 // slow snapshot: keep it running
	r := newTestRig(cfg)
	r.eng.Spawn("client", func(env *sim.Env) {
		for i := 0; i < 100; i++ {
			if err := r.db.Set(env, fmt.Sprintf("key%03d", i), value(i, 4096)); err != nil {
				t.Error(err)
				return
			}
		}
		r.db.TriggerSnapshot(OnDemandSnapshot)
		// Overwrite everything while the snapshot runs.
		for i := 0; i < 100; i++ {
			if err := r.db.Set(env, fmt.Sprintf("key%03d", i), value(i+1, 4096)); err != nil {
				t.Error(err)
				return
			}
		}
		r.db.Shutdown(env)
	})
	r.eng.Run()
	s := r.db.Stats()
	if s.COWCopies == 0 {
		t.Fatal("no COW copies despite concurrent writes")
	}
	if s.PeakMemory <= s.BaseMemory {
		t.Fatalf("peak %d not above base %d", s.PeakMemory, s.BaseMemory)
	}
	if s.ForkStall == 0 {
		t.Fatal("fork stall not accounted")
	}
}

func TestSecondSnapshotIgnoredWhileActive(t *testing.T) {
	cfg := Config{Policy: PeriodicalLog}
	cfg.Cost = DefaultCostModel()
	cfg.Cost.CompressBandwidth = 4 << 20
	r := newTestRig(cfg)
	r.eng.Spawn("client", func(env *sim.Env) {
		for i := 0; i < 50; i++ {
			if err := r.db.Set(env, fmt.Sprintf("k%d", i), value(i, 2048)); err != nil {
				t.Error(err)
				return
			}
		}
		r.db.TriggerSnapshot(OnDemandSnapshot)
		r.db.TriggerSnapshot(OnDemandSnapshot) // must be dropped
		r.db.Shutdown(env)
	})
	r.eng.Run()
	if n := r.be.beginCount; n != 1 {
		t.Fatalf("BeginSnapshot called %d times, want 1", n)
	}
}

func TestSnapshotCommitFailureCounted(t *testing.T) {
	r := newTestRig(Config{Policy: PeriodicalLog})
	r.be.failCommit = true
	r.eng.Spawn("client", func(env *sim.Env) {
		if err := r.db.Set(env, "k", []byte("v")); err != nil {
			t.Error(err)
			return
		}
		r.db.TriggerSnapshot(OnDemandSnapshot)
		r.db.Shutdown(env)
	})
	r.eng.Run()
	s := r.db.Stats()
	if s.SnapshotsAbort != 1 || len(s.Snapshots) != 0 {
		t.Fatalf("aborts=%d ok=%d", s.SnapshotsAbort, len(s.Snapshots))
	}
}

func TestQueriesServedDuringSnapshot(t *testing.T) {
	// The core property fork-based snapshotting buys: the engine keeps
	// serving while the child writes the dump.
	cfg := Config{Policy: PeriodicalLog}
	cfg.Cost = DefaultCostModel()
	cfg.Cost.CompressBandwidth = 2 << 20
	r := newTestRig(cfg)
	var servedDuring int
	r.eng.Spawn("client", func(env *sim.Env) {
		for i := 0; i < 50; i++ {
			if err := r.db.Set(env, fmt.Sprintf("k%d", i), value(i, 4096)); err != nil {
				t.Error(err)
				return
			}
		}
		trig := r.db.TriggerSnapshot(OnDemandSnapshot)
		trig.Reply.Wait(env) // accepted: snapshot is now active
		for r.db.SnapshotActive() {
			if _, err := r.db.Get(env, "k1"); err != nil {
				t.Error(err)
				return
			}
			servedDuring++
			env.Sleep(sim.Millisecond)
		}
		r.db.Shutdown(env)
	})
	r.eng.Run()
	if servedDuring < 5 {
		t.Fatalf("only %d queries served during snapshot", servedDuring)
	}
}

func TestStoreBasics(t *testing.T) {
	s := NewStore(4096)
	isNew, span := s.Set("a", bytes.Repeat([]byte("x"), 5000))
	if !isNew || span.n != 2 {
		t.Fatalf("new=%v span=%+v", isNew, span)
	}
	isNew, span2 := s.Set("a", []byte("tiny"))
	if isNew || span2.start != span.start {
		t.Fatalf("shrinking value must keep span: %+v vs %+v", span2, span)
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
	// COW epochs.
	s.BeginCOWEpoch()
	if c := s.TouchPages(span); c != 2 {
		t.Fatalf("first touch copied %d, want 2", c)
	}
	if c := s.TouchPages(span); c != 0 {
		t.Fatalf("second touch copied %d, want 0", c)
	}
	s.BeginCOWEpoch()
	if c := s.TouchPages(span); c != 2 {
		t.Fatalf("new epoch touch copied %d, want 2", c)
	}
}

func TestStoreGrowingValueGetsFreshSpan(t *testing.T) {
	s := NewStore(4096)
	_, sp1 := s.Set("k", []byte("small"))
	_, sp2 := s.Set("k", bytes.Repeat([]byte("B"), 9000))
	if sp2.start == sp1.start || sp2.n != 3 {
		t.Fatalf("grown span = %+v (was %+v)", sp2, sp1)
	}
}

// Property: for any random interleaving of SETs, snapshot triggers, and
// policies, clean-shutdown recovery reproduces the final store exactly.
func TestRecoveryProperty(t *testing.T) {
	prop := func(seed int64, policyRaw, trigRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		policy := PeriodicalLog
		if policyRaw%2 == 1 {
			policy = AlwaysLog
		}
		trigger := int64(trigRaw%8+1) << 11 // 2-16 KiB
		r := newTestRig(Config{Policy: policy, WALSnapshotTrigger: trigger})
		final := map[string]string{}
		ok := true
		r.eng.Spawn("client", func(env *sim.Env) {
			for i := 0; i < 300; i++ {
				k := fmt.Sprintf("key%02d", rng.Intn(40))
				v := fmt.Sprintf("v-%d-%d", seed, i)
				if err := r.db.Set(env, k, []byte(v)); err != nil {
					ok = false
					return
				}
				final[k] = v
				if rng.Intn(60) == 0 {
					r.db.TriggerSnapshot(OnDemandSnapshot)
				}
			}
			r.db.Shutdown(env)
		})
		r.eng.Run()
		if !ok {
			return false
		}
		db2 := New(r.eng, r.be, Config{}, nil)
		r.eng.Spawn("recover", func(env *sim.Env) {
			if _, _, err := db2.Recover(env); err != nil {
				ok = false
			}
		})
		r.eng.Run()
		if !ok || db2.Store().Len() != len(final) {
			return false
		}
		for k, v := range final {
			if string(db2.Store().Get(k)) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteRoundTripAndRecovery(t *testing.T) {
	r := newTestRig(Config{Policy: PeriodicalLog, WALSnapshotTrigger: 8 << 10})
	final := map[string]string{}
	r.eng.Spawn("client", func(env *sim.Env) {
		for i := 0; i < 400; i++ {
			k := fmt.Sprintf("key%02d", i%50)
			if i%7 == 3 {
				if err := r.db.Del(env, k); err != nil {
					t.Error(err)
					return
				}
				delete(final, k)
				continue
			}
			v := fmt.Sprintf("v%d", i)
			if err := r.db.Set(env, k, []byte(v)); err != nil {
				t.Error(err)
				return
			}
			final[k] = v
		}
		// Deleted keys read as missing.
		if err := r.db.Del(env, "key01"); err != nil {
			t.Error(err)
			return
		}
		delete(final, "key01")
		if v, _ := r.db.Get(env, "key01"); v != nil {
			t.Errorf("deleted key returned %q", v)
		}
		// Take a snapshot with tombstones in the key list.
		trig := r.db.TriggerSnapshot(OnDemandSnapshot)
		trig.Reply.Wait(env)
		r.db.WaitNoSnapshot(env)
		r.db.Shutdown(env)
	})
	r.eng.Run()
	if r.db.Stats().Dels == 0 {
		t.Fatal("no deletes recorded")
	}
	if r.db.Store().Len() != len(final) {
		t.Fatalf("live keys = %d, want %d", r.db.Store().Len(), len(final))
	}

	db2 := New(r.eng, r.be, Config{}, nil)
	r.eng.Spawn("recover", func(env *sim.Env) {
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
			t.Fatalf("key %s = %q, want %q", k, got, v)
		}
	}
	if got := db2.Store().Get("key01"); got != nil {
		t.Fatalf("deleted key survived recovery: %q", got)
	}
}

func TestStoreDelete(t *testing.T) {
	s := NewStore(4096)
	s.Set("a", bytes.Repeat([]byte("x"), 5000))
	bytesBefore := s.Bytes()
	existed, span := s.Delete("a")
	if !existed || span.n != 2 {
		t.Fatalf("existed=%v span=%+v", existed, span)
	}
	if s.Get("a") != nil {
		t.Fatal("deleted key readable")
	}
	if s.Bytes() >= bytesBefore {
		t.Fatal("bytes not reclaimed")
	}
	if existed, _ := s.Delete("a"); existed {
		t.Fatal("double delete reported existed")
	}
	// Re-insert after delete gets a fresh span and counts as new.
	isNew, _ := s.Set("a", []byte("back"))
	if !isNew && s.Get("a") == nil {
		t.Fatal("re-insert failed")
	}
	if string(s.Get("a")) != "back" {
		t.Fatal("re-inserted value wrong")
	}
}
