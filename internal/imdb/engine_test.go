package imdb

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/wal"
)

// faulty is the model behind failure switches: a call switched to fail
// takes the model's latency and fails without reaching it. Like SlimIO, it
// refuses a chain that does not continue the open segment's last page.
type faulty struct {
	*Model
	failAppend, failSync, failRotate, failCommit bool
	full                                         bool // ErrLogFull on appends until the next WALDiscardOld
	begun                                        int  // BeginSnapshot calls
	pageSize                                     int  // the engine's pool segment size
}

// errInjected is what faulty's switches return.
var errInjected = errors.New("model: injected failure")

func (f *faulty) fail(env *sim.Env, on bool) bool {
	if on {
		env.Sleep(f.Latency)
	}
	return on
}

func (f *faulty) WALAppend(env *sim.Env, data wal.Chain) error {
	if f.fail(env, f.failAppend) {
		return errInjected // the chain stays with the engine
	}
	if f.fail(env, f.full) {
		return fmt.Errorf("faulty: %w", ErrLogFull)
	}
	if fill := int(f.WALDurableSize()) % f.pageSize; !data.Empty() && data.Off != fill {
		return fmt.Errorf("faulty: chain at offset %d does not continue the open page (fill %d)", data.Off, fill)
	}
	return f.Model.WALAppend(env, data)
}

func (f *faulty) WALDiscardOld(env *sim.Env) error {
	f.full = false
	return f.Model.WALDiscardOld(env)
}

func (f *faulty) WALSync(env *sim.Env) error {
	if f.fail(env, f.failSync) {
		return errInjected
	}
	return f.Model.WALSync(env)
}

func (f *faulty) WALRotate(env *sim.Env) error {
	if f.fail(env, f.failRotate) {
		return errInjected
	}
	return f.Model.WALRotate(env)
}

func (f *faulty) BeginSnapshot(env *sim.Env, kind SnapshotKind) (SnapshotSink, error) {
	f.begun++
	s, err := f.Model.BeginSnapshot(env, kind)
	if f.failCommit && err == nil {
		s = failedCommit{s}
	}
	return s, err
}

type failedCommit struct{ SnapshotSink }

func (failedCommit) Commit(*sim.Env) error { return errInjected }

// walOf decodes each of segs, a log segment held in one buffer, as a
// backend's Recover does.
func walOf(segs ...[]byte) []wal.Segment {
	out := make([]wal.Segment, len(segs))
	for i, seg := range segs {
		out[i] = wal.DecodeSegment([][]byte{seg})
	}
	return out
}

// durable is the model's guaranteed state: the records every log segment
// keeps across a crash, in order, and the snapshot image.
func durable(m *Model) ([]wal.Record, *Recovered) {
	rec, _ := m.Recover(nil)
	var recs []wal.Record
	for _, seg := range rec.WAL {
		recs = append(recs, seg.Records()...)
	}
	return recs, rec
}

type testRig struct {
	eng *sim.Engine
	be  *faulty
	db  *Engine
}

func newTestRig(cfg Config) *testRig {
	eng := sim.NewEngine()
	be := &faulty{Model: &Model{Latency: 50 * sim.Microsecond}}
	db := New(eng, be, cfg, nil)
	be.pageSize = db.cfg.Pool.SegSize()
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
	if recs, _ := durable(r.be.Model); len(recs) != 10 {
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
			if recs, _ := durable(r.be.Model); len(recs) != i+1 {
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
	if _, rec := durable(r.be.Model); !rec.HaveSnapshot || rec.Kind != OnDemandSnapshot {
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
	if n := r.be.begun; n != 1 {
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

// A failed Periodical-Log append refuses later writes, with an error that
// wraps the device's, until the next tick has appended the failed bytes and
// synced them; GETs keep serving. An error that is not a full log is no
// stall, so a WAL-Snapshot trigger changes none of this.
func TestWALAppendFailureRefusesWritesUntilSync(t *testing.T) {
	for _, trigger := range []int64{0, 1 << 30} {
		t.Run(fmt.Sprintf("trigger=%d", trigger), func(t *testing.T) {
			testWALAppendFailureRefusesWrites(t, trigger)
		})
	}
}

func testWALAppendFailureRefusesWrites(t *testing.T, trigger int64) {
	r := newTestRig(Config{Policy: PeriodicalLog, WALSnapshotTrigger: trigger})
	r.be.failAppend = true
	r.eng.Spawn("client", func(env *sim.Env) {
		// Acknowledged before its append, which then fails.
		if err := r.db.Set(env, "k1", []byte("v1")); err != nil {
			t.Errorf("first set: %v", err)
		}
		if err := r.db.Set(env, "k2", []byte("v2")); !errors.Is(err, errInjected) {
			t.Errorf("set after a failed append = %v, want it refused", err)
		}
		if err := r.db.Del(env, "k1"); !errors.Is(err, errInjected) {
			t.Errorf("del after a failed append = %v, want it refused", err)
		}
		if v, err := r.db.Get(env, "k1"); err != nil || string(v) != "v1" {
			t.Errorf("get = %q, %v; want v1 served", v, err)
		}
		env.Sleep(flushInterval + sim.Millisecond) // the tick's retry fails too
		if err := r.db.Set(env, "k2", []byte("v2")); !errors.Is(err, errInjected) {
			t.Errorf("set after a failed retry = %v, want it refused", err)
		}
		r.be.failAppend = false
		env.Sleep(flushInterval + sim.Millisecond) // the retry and its sync succeed
		if recs, _ := durable(r.be.Model); len(recs) == 0 {
			t.Error("the tick did not make k1's parked record durable")
		}
		if err := r.db.Set(env, "k2", []byte("v2")); err != nil {
			t.Errorf("set after a good sync: %v", err)
		}
		if err := r.db.Shutdown(env); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	r.eng.Run()
	if s := r.db.Stats(); s.Sets != 2 || s.Dels != 0 || s.WALStalls != 0 || r.be.begun != 0 {
		t.Fatalf("sets=%d dels=%d stalls=%d snapshots begun=%d: refused writes must not be applied, and a failed append is no stall",
			s.Sets, s.Dels, s.WALStalls, r.be.begun)
	}
	// k1's record survived the failed appends, in order; the refused writes
	// were never logged.
	recs, _ := durable(r.be.Model)
	if len(recs) != 2 || string(recs[0].Key) != "k1" || string(recs[1].Key) != "k2" {
		t.Fatalf("WAL holds %d records, want k1's then k2's", len(recs))
	}
}

// Log bytes whose append keeps failing are still parked at Shutdown, which
// reports the failure instead of dropping them silently.
func TestWALAppendFailureReportedAtShutdown(t *testing.T) {
	r := newTestRig(Config{Policy: PeriodicalLog})
	r.be.failAppend = true
	r.eng.Spawn("client", func(env *sim.Env) {
		if err := r.db.Set(env, "k1", []byte("v1")); err != nil {
			t.Errorf("first set: %v", err)
		}
		env.Sleep(flushInterval + sim.Millisecond)
		if n := r.db.WALPendingBytes(); n == 0 {
			t.Error("the failed append's bytes were not kept")
		}
		if err := r.db.Shutdown(env); !errors.Is(err, errInjected) {
			t.Errorf("shutdown = %v, want the append failure", err)
		}
	})
	r.eng.Run()
	if r.be.WALDurableSize() != 0 || r.db.Stats().WALSyncs != 0 {
		t.Fatalf("nothing was appended, yet durable=%d syncs=%d", r.be.WALDurableSize(), r.db.Stats().WALSyncs)
	}
}

// Under Always-Log a failed group commit fails its clients' replies and keeps
// the batch's records, which the next commit writes ahead of its own: the
// log has no hole where the failed batch was.
func TestAlwaysLogFailedCommitKeepsItsRecords(t *testing.T) {
	r := newTestRig(Config{Policy: AlwaysLog})
	r.be.failAppend = true
	r.eng.Spawn("client", func(env *sim.Env) {
		if err := r.db.Set(env, "k1", []byte("v1")); !errors.Is(err, errInjected) {
			t.Errorf("set during a failing append = %v, want the failure", err)
		}
		r.be.failAppend = false
		if err := r.db.Set(env, "k2", []byte("v2")); err != nil {
			t.Errorf("set after the device recovered: %v", err)
		}
		if err := r.db.Shutdown(env); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	r.eng.Run()
	recs, _ := durable(r.be.Model)
	if len(recs) != 2 || string(recs[0].Key) != "k1" || string(recs[1].Key) != "k2" {
		t.Fatalf("durable WAL holds %d records, want k1's then k2's", len(recs))
	}
}

// A failed background sync refuses writes too, and Shutdown reports it when
// no later background sync cleared it, even if the final flush succeeds.
func TestWALSyncFailureReportedAtShutdown(t *testing.T) {
	r := newTestRig(Config{Policy: PeriodicalLog})
	r.be.failSync = true
	r.eng.Spawn("client", func(env *sim.Env) {
		if err := r.db.Set(env, "k1", []byte("v1")); err != nil {
			t.Errorf("first set: %v", err)
		}
		env.Sleep(flushInterval + sim.Millisecond) // the tick's sync fails
		if err := r.db.Set(env, "k2", []byte("v2")); !errors.Is(err, errInjected) {
			t.Errorf("set after a failed sync = %v, want it refused", err)
		}
		if v, _ := r.db.Get(env, "k1"); string(v) != "v1" {
			t.Errorf("get = %q, want v1 served", v)
		}
		r.be.failSync = false
		if err := r.db.Shutdown(env); !errors.Is(err, errInjected) {
			t.Errorf("shutdown = %v, want the sync failure", err)
		}
	})
	r.eng.Run()
	if r.db.Store().Get("k2") != nil {
		t.Fatal("refused write was applied")
	}
}

// When every snapshot aborts and the log stays over the WAL-Snapshot trigger,
// the automatic trigger backs off instead of restarting a snapshot on every
// event-loop iteration, so Shutdown gets through.
func TestFailingSnapshotsLetShutdownThrough(t *testing.T) {
	r := newTestRig(Config{Policy: PeriodicalLog, WALSnapshotTrigger: 4 << 10})
	r.be.failCommit, r.be.failRotate = true, true
	done := false
	r.eng.Spawn("client", func(env *sim.Env) {
		for i := 0; i < 100; i++ {
			if err := r.db.Set(env, fmt.Sprintf("k%d", i), value(i, 128)); err != nil {
				t.Error(err)
				return
			}
		}
		if err := r.db.Shutdown(env); err != nil {
			t.Error(err)
		}
		done = true
	})
	r.eng.RunUntil(sim.Time(10 * sim.Second))
	if !done {
		t.Fatalf("Shutdown never returned; %d snapshots aborted", r.db.Stats().SnapshotsAbort)
	}
	if r.db.Stats().SnapshotsAbort == 0 {
		t.Fatal("no snapshot aborted: the test proves nothing")
	}
}

// A WAL-Snapshot whose fork cannot rotate the log, here because the append
// before the rotation fails with an error that is no full log, frees no log
// space. The automatic trigger backs off as after an abort instead of
// forking the next one as soon as it completes, so Shutdown gets through and
// reports the failure.
func TestUnrotatedWALSnapshotBacksOff(t *testing.T) {
	cfg := Config{Policy: PeriodicalLog, WALSnapshotTrigger: 4 << 10}
	cfg.Cost = DefaultCostModel()
	cfg.Cost.CompressBandwidth = 4 << 20 // keep the On-Demand-Snapshot running
	r := newTestRig(cfg)
	var shutdownErr error
	done := false
	r.eng.Spawn("client", func(env *sim.Env) {
		for i := 0; i < 20; i++ {
			if err := r.db.Set(env, fmt.Sprintf("key%03d", i), value(i, 128)); err != nil {
				t.Error(err)
			}
		}
		r.db.TriggerSnapshot(OnDemandSnapshot).Reply.Wait(env)
		// The log passes the trigger while the On-Demand-Snapshot runs.
		for i := 20; r.be.WALDurableSize() < cfg.WALSnapshotTrigger; i++ {
			if err := r.db.Set(env, fmt.Sprintf("key%03d", i), value(i, 128)); err != nil {
				t.Error(err)
			}
		}
		r.be.failAppend = true
		if err := r.db.Set(env, "last", value(0, 128)); err != nil {
			t.Error(err)
		}
		r.db.WaitNoSnapshot(env)
		shutdownErr = r.db.Shutdown(env)
		done = true
	})
	r.eng.RunUntil(sim.Time(10 * sim.Second))
	if !done {
		t.Fatalf("Shutdown never returned; %d snapshots", len(r.db.Stats().Snapshots))
	}
	if !errors.Is(shutdownErr, errInjected) {
		t.Fatalf("shutdown = %v, want the append failure", shutdownErr)
	}
}

// A log that fills while an On-Demand-Snapshot runs stalls: the chain parks
// and the buffer grows. The next WAL-Snapshot covers both, so its commit
// frees the log and releases them instead of re-offering bytes that can no
// longer fit; the post-fork records then flow again, and a clean recovery
// returns every SET.
func TestWALStallClearsAtNextWALSnapshot(t *testing.T) {
	cfg := Config{Policy: PeriodicalLog, WALSnapshotTrigger: 16 << 10}
	cfg.Cost = DefaultCostModel()
	cfg.Cost.CompressBandwidth = 4 << 20 // keep the On-Demand-Snapshot running
	r := newTestRig(cfg)
	final := map[string]string{}
	done := false
	var logged int64
	set := func(env *sim.Env, i int) {
		k, v := fmt.Sprintf("key%03d", i%150), fmt.Sprintf("%0100d", i)
		if err := r.db.Set(env, k, []byte(v)); err != nil {
			t.Error(err)
		}
		final[k] = v
		logged += int64(wal.EncodedSize([]byte(k), []byte(v)))
	}
	r.eng.Spawn("client", func(env *sim.Env) {
		for i := 0; i < 100; i++ { // under the trigger
			set(env, i)
		}
		r.db.TriggerSnapshot(OnDemandSnapshot).Reply.Wait(env)
		r.be.full = true
		i := 100
		for ; r.db.Stats().WALStalls == 0 || len(r.db.Stats().Snapshots) < 2; i++ {
			set(env, i)
			if i > 5000 {
				t.Fatalf("stats %+v: the stall never cleared", r.db.Stats())
			}
		}
		for j := i; j < i+20; j++ {
			set(env, j)
		}
		if n := r.db.WALPendingBytes(); n != 0 {
			t.Errorf("%d bytes still parked after the WAL-Snapshot committed", n)
		}
		if err := r.db.Shutdown(env); err != nil {
			t.Error(err)
		}
		done = true
	})
	// A stall that never clears keeps retriggering WAL-Snapshots, which
	// holds Shutdown off for good.
	r.eng.RunUntil(sim.Time(10 * sim.Second))
	if !done {
		t.Fatalf("Shutdown never returned; %d bytes parked", r.db.WALPendingBytes())
	}
	st := r.db.Stats()
	if st.Snapshots[0].Kind != OnDemandSnapshot || st.Snapshots[1].Kind != WALSnapshot {
		t.Fatalf("snapshots %+v: want the On-Demand-Snapshot, then a WAL-Snapshot", st.Snapshots)
	}
	// The full log refused the parked bytes twice: at the stall and at the
	// On-Demand-Snapshot's completion. Nothing offers them in between.
	if st.WALStalls != 2 {
		t.Errorf("%d stalls, want 2: parked bytes were offered while the log stayed full", st.WALStalls)
	}
	// The WAL-Snapshot's commit dropped the parked records it covers
	// instead of appending them.
	if st.WALBytes >= logged {
		t.Errorf("%d bytes appended for %d logged: the commit kept records its snapshot covers", st.WALBytes, logged)
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
}

// Log bytes parked at a WAL-Snapshot's fork belong to the segment it rotated
// away from. When that snapshot aborts it covers nothing, so they still go to
// the log: re-buffered ahead of the post-fork records, so the chain that
// carries them continues the new segment's first page, they are appended as
// soon as the snapshot ends, and a recovery returns every SET.
func TestAbortedWALSnapshotAppendsParkedLog(t *testing.T) {
	r := newTestRig(Config{Policy: PeriodicalLog, WALSnapshotTrigger: 1 << 30})
	final := map[string]string{}
	set := func(env *sim.Env, i int) {
		k, v := fmt.Sprintf("key%03d", i%150), fmt.Sprintf("%0100d", i)
		if err := r.db.Set(env, k, []byte(v)); err != nil {
			t.Error(err)
		}
		final[k] = v
	}
	r.eng.Spawn("client", func(env *sim.Env) {
		for i := 0; i < 100; i++ {
			set(env, i)
		}
		r.be.full, r.be.failCommit = true, true
		i := 100
		for ; r.db.Stats().WALStalls == 0; i++ {
			set(env, i)
		}
		r.be.full = false
		r.db.WaitNoSnapshot(env)
		set(env, i) // served after the aborted snapshot's completion
		if st := r.db.Stats(); st.SnapshotsAbort != 1 || len(st.Snapshots) != 0 {
			t.Fatalf("stats %+v: want the stall's WAL-Snapshot aborted", st)
		}
		if n := r.db.WALPendingBytes(); n != 0 {
			t.Errorf("%d bytes still parked after the WAL-Snapshot aborted", n)
		}
		r.be.failCommit = false
		if err := r.db.Shutdown(env); err != nil {
			t.Error(err)
		}
	})
	r.eng.Run()
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
}

// Log bytes parked behind a full log when Shutdown arrives are not dropped.
// With a WAL-Snapshot trigger, Shutdown forks the WAL-Snapshot that covers
// them, serves until it commits, flushes again and returns nil, and a
// recovery returns every SET. Without one nothing can drain them, and
// Shutdown reports it instead of returning nil.
func TestShutdownDrainsParkedLog(t *testing.T) {
	for _, c := range []struct {
		name    string
		trigger int64
		drains  bool
	}{
		{"wal-snapshot", 1 << 30, true},
		{"no-wal-snapshot", 0, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{Policy: PeriodicalLog, WALSnapshotTrigger: c.trigger}
			cfg.Cost = DefaultCostModel()
			cfg.Cost.CompressBandwidth = 4 << 20 // keep the On-Demand-Snapshot running
			r := newTestRig(cfg)
			final := map[string]string{}
			var shutdownErr error
			done := false
			r.eng.Spawn("client", func(env *sim.Env) {
				set := func(i int) {
					k, v := fmt.Sprintf("key%03d", i%150), fmt.Sprintf("%0100d", i)
					if err := r.db.Set(env, k, []byte(v)); err != nil {
						t.Error(err)
					}
					final[k] = v
				}
				for i := 0; i < 100; i++ {
					set(i)
				}
				r.db.TriggerSnapshot(OnDemandSnapshot).Reply.Wait(env)
				r.be.full = true
				for i := 100; i < 140; i++ {
					set(i)
				}
				r.db.WaitNoSnapshot(env)
				if r.db.Stats().WALStalls == 0 || r.db.WALPendingBytes() == 0 {
					t.Fatalf("stats %+v, %d bytes parked: the log never stalled", r.db.Stats(), r.db.WALPendingBytes())
				}
				shutdownErr = r.db.Shutdown(env)
				done = true
			})
			r.eng.RunUntil(sim.Time(10 * sim.Second))
			if !done {
				t.Fatalf("Shutdown never returned; %d bytes parked", r.db.WALPendingBytes())
			}
			if !c.drains {
				if shutdownErr == nil {
					t.Fatal("Shutdown returned nil while log bytes stayed parked")
				}
				return
			}
			if shutdownErr != nil {
				t.Fatalf("shutdown: %v", shutdownErr)
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
		})
	}
}
