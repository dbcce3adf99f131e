package imdb_test

import (
	"bytes"
	"fmt"
	"maps"
	"reflect"
	"testing"

	"github.com/slimio/slimio/internal/baseline"
	"github.com/slimio/slimio/internal/bufpool"
	"github.com/slimio/slimio/internal/core"
	"github.com/slimio/slimio/internal/exp"
	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/kernelio"
	"github.com/slimio/slimio/internal/sim"
)

// Recovery on the real stacks (both backends over a simulated device), which
// the in-package tests cannot build: core and baseline import imdb.

var stackKinds = []exp.BackendKind{exp.SlimIOFDP, exp.BaselineF2FS}

func stackScale() exp.Scale {
	return exp.Scale{Name: "recover", DeviceBytes: 128 << 20, SlotBytes: 16 << 20}
}

// life runs a database on a fresh stack of kind: ops SETs of valueSize bytes
// over keys keys with every 7th op a DEL, an On-Demand-Snapshot half way and
// WAL-Snapshots (with their log rotations) as the log grows, then a clean
// shutdown. With cut > 0 the power goes at that instant instead and whatever
// the device holds is what survives. It returns the stack and when it ended.
func life(tb testing.TB, kind exp.BackendKind, keys, ops, valueSize int, cut sim.Time) (*exp.Stack, sim.Time) {
	tb.Helper()
	return lifeOn(tb, kind, keys, ops, valueSize, cut, nil)
}

// lifeOn is life with the engine's calls to the stack's backend going
// through m, when m is not nil, so m records what they made durable.
func lifeOn(tb testing.TB, kind exp.BackendKind, keys, ops, valueSize int, cut sim.Time, m *imdb.Model) (*exp.Stack, sim.Time) {
	tb.Helper()
	eng := sim.NewEngine()
	st, err := exp.BuildStack(eng, kind, stackScale())
	if err != nil {
		tb.Fatal(err)
	}
	if cut > 0 {
		st.ArmPowerCut(cut)
	}
	var be imdb.Backend = st.Backend
	if m != nil {
		m.Under, be = st.Backend, m
	}
	db := imdb.New(eng, be, imdb.Config{
		Policy:             imdb.AlwaysLog,
		WALSnapshotTrigger: int64(ops*valueSize) / 3,
		Pool:               st.Pool(),
	}, nil)
	db.Start()
	eng.Spawn("life", func(env *sim.Env) {
		for i := 0; i < ops; i++ {
			key := fmt.Sprintf("key:%06d", (i*7919)%keys)
			var err error
			if i%7 == 6 {
				err = db.Del(env, key)
			} else {
				v := bytes.Repeat([]byte{byte(i), byte(i >> 8)}, valueSize/2)
				err = db.Set(env, key, v)
			}
			if err != nil {
				// An op caught by the power cut fails; any other must not.
				if cut == 0 {
					tb.Errorf("op %d: %v", i, err)
				}
				return
			}
			if i == ops/2 {
				db.TriggerSnapshot(imdb.OnDemandSnapshot).Reply.Wait(env)
			}
		}
		db.WaitNoSnapshot(env)
		db.Shutdown(env)
	})
	end := cut
	if cut > 0 {
		eng.RunUntil(cut)
		eng.Stop()
		// Power restored: recovery reads a healthy, frozen device.
		st.Dev.FTL().Array().SetFaultHook(nil)
	} else {
		end = eng.Run()
	}
	eng.Shutdown()
	db.ReleaseBuffers()
	return st, end
}

// reopen attaches a fresh backend on eng to the device st left behind, as a
// restarted process would. A baseline backend runs on fs, a remount of
// st.FS.
func reopen(tb testing.TB, st *exp.Stack, eng *sim.Engine) (be imdb.Backend, fs *kernelio.Filesystem, closeBackend func()) {
	tb.Helper()
	if st.FS != nil {
		fs = st.FS.Remount(eng)
		nbe, err := baseline.Remount(fs)
		if err != nil {
			tb.Fatal(err)
		}
		return nbe, fs, nbe.Close
	}
	nbe, err := core.New(eng, st.Dev, core.Config{SlotPages: stackScale().SlotBytes / int64(st.Dev.PageSize())})
	if err != nil {
		tb.Fatal(err)
	}
	return nbe, nil, nbe.Close
}

// imageKeeper is a backend that keeps the runs of the snapshot image its
// Recover hands the engine, which the engine drops once it has decoded them.
type imageKeeper struct {
	imdb.Backend
	image [][]byte
}

func (k *imageKeeper) Recover(env *sim.Env) (*imdb.Recovered, error) {
	rec, err := k.Backend.Recover(env)
	if rec != nil {
		k.image = rec.Snapshot
	}
	return rec, err
}

// recoverFresh recovers the surviving device of st into a fresh engine. took
// is the recovery's virtual duration and image the runs of the snapshot image
// the backend read.
func recoverFresh(tb testing.TB, st *exp.Stack) (db *imdb.Engine, entries, walRecords int64, took sim.Duration, image [][]byte) {
	tb.Helper()
	eng := sim.NewEngine()
	be, _, closeBackend := reopen(tb, st, eng)
	keeper := &imageKeeper{Backend: be}
	db = imdb.New(eng, keeper, imdb.Config{Pool: st.Pool()}, nil)
	eng.Spawn("recover", func(env *sim.Env) {
		start := env.Now()
		var err error
		if entries, walRecords, err = db.Recover(env); err != nil {
			tb.Errorf("recover: %v", err)
		}
		took = env.Now().Sub(start)
	})
	eng.Run()
	eng.Shutdown()
	closeBackend()
	return db, entries, walRecords, took, keeper.image
}

// The database life the recovery tests cut short: lifeOps operations of
// lifeValueSize bytes over lifeKeys keys.
const lifeKeys, lifeOps, lifeValueSize = 150, 900, 1024

// lifeCuts are the power-cut instants the recovery tests try on a life that
// runs to end uninterrupted: none (a clean shutdown), then four spread over
// the run.
func lifeCuts(end sim.Time) []sim.Time {
	return []sim.Time{0, end / 3, end / 2, end * 3 / 4, end - end/50}
}

// dumpStore serializes a store in its snapshot-iteration order.
func dumpStore(s *imdb.Store) []byte {
	var out bytes.Buffer
	for i := 0; i < s.ListedLen(); i++ {
		k := s.KeyAt(i)
		v := s.Get(k)
		fmt.Fprintf(&out, "%s=%d:", k, len(v))
		out.Write(v)
	}
	return out.Bytes()
}

// TestRecoveryIdempotent: recovering twice from the same surviving device
// into fresh engines gives byte-identical stores and the same account of the
// damage, at several power-cut instants and after a clean shutdown. And the
// recovered store owns its values. Scribbling over the runs of the snapshot
// image the backend handed the engine leaves it untouched, and those runs
// and the replayed WAL records are gone from what LastRecovery returns. And
// once the stack is closed, refilling every free pooled segment — the device
// pages the image and the log were read from included — leaves the store
// untouched too; it would not if a snapshot entry or a replayed record were
// a view of a page. Only the engines' ReleaseBuffers returns the last
// segments, those holding the recovered values.
func TestRecoveryIdempotent(t *testing.T) {
	for _, kind := range stackKinds {
		t.Run(kind.String(), func(t *testing.T) {
			full, end := life(t, kind, lifeKeys, lifeOps, lifeValueSize, 0)
			full.Close()
			for _, cut := range lifeCuts(end) {
				st, _ := life(t, kind, lifeKeys, lifeOps, lifeValueSize, cut)
				db1, entries, walRecords, _, image := recoverFresh(t, st)
				db2, _, _, _, _ := recoverFresh(t, st)
				r1, r2 := db1.LastRecovery(), db2.LastRecovery()
				t.Logf("cut %v: %d snapshot entries + %d wal records, truncated at %d, degraded %q",
					cut, entries, walRecords, r1.WALTruncatedAt, r1.Degraded)
				if entries+walRecords == 0 {
					t.Errorf("cut %v: nothing recovered, the test proves nothing", cut)
				}
				dump := dumpStore(db1.Store())
				if !bytes.Equal(dump, dumpStore(db2.Store())) {
					t.Errorf("cut %v: second recovery built a different store", cut)
				}
				if !reflect.DeepEqual(r1.Degraded, r2.Degraded) || r1.WALTruncatedAt != r2.WALTruncatedAt {
					t.Errorf("cut %v: recoveries disagree on the damage: %q at %d vs %q at %d",
						cut, r1.Degraded, r1.WALTruncatedAt, r2.Degraded, r2.WALTruncatedAt)
				}
				for i, seg := range r1.WAL {
					if seg.Count() != 0 {
						t.Errorf("cut %v: LastRecovery still holds %d replayed records of wal segment %d", cut, seg.Count(), i)
					}
				}
				if entries > 0 && len(image) == 0 {
					t.Errorf("cut %v: %d snapshot entries but no image runs to scribble", cut, entries)
				}
				for _, run := range image {
					for j := range run {
						run[j] ^= 0xFF
					}
				}
				if !bytes.Equal(dump, dumpStore(db1.Store())) {
					t.Errorf("cut %v: the store changed when the snapshot image was overwritten", cut)
				}
				if r1.Snapshot != nil {
					t.Errorf("cut %v: LastRecovery still holds the %d runs of the snapshot image", cut, len(r1.Snapshot))
				}
				st.Close()
				refillFree(st.Pool())
				if !bytes.Equal(dump, dumpStore(db1.Store())) {
					t.Errorf("cut %v: the store changed when the freed device pages were refilled", cut)
				}
				db1.ReleaseBuffers()
				db2.ReleaseBuffers()
				if n := st.Pool().InFlight(); n != 0 {
					t.Errorf("cut %v: %d pooled segments leaked", cut, n)
				}
			}
		})
	}
}

// refillFree draws every segment pool has ever carved that is free now,
// overwrites it with 0xFF and gives it back: a value still viewing a
// released page, in any build, reads the 0xFF.
func refillFree(pool *bufpool.Pool) {
	drawn := make([]*bufpool.Segment, pool.Allocated()-pool.InFlight())
	for i := range drawn {
		drawn[i] = pool.Get()
		b := drawn[i].Bytes()
		for j := range b {
			b[j] = 0xFF
		}
	}
	for _, s := range drawn {
		s.Release()
	}
}

// TestRecoveredStoreOutlivesItsRuns: after a clean life on each backend, the
// store recovered from the device equals the one recovered from what the
// Backend contract promises (Model.Recover of a model that watched every
// call), still after the backend is closed and every page it read is
// released and rewritten — and, under -race, poisoned at release. A store
// value left viewing a snapshot run or a log record would read the rewrite.
// The model's engine is also started and shut down first, and its pool's
// free segments rewritten: a stopped engine's store stays readable.
func TestRecoveredStoreOutlivesItsRuns(t *testing.T) {
	for _, kind := range stackKinds {
		t.Run(kind.String(), func(t *testing.T) {
			m := &imdb.Model{}
			st, _ := lifeOn(t, kind, lifeKeys, lifeOps, lifeValueSize, 0, m)
			db, entries, walRecords, _, _ := recoverFresh(t, st)
			if entries == 0 || walRecords == 0 {
				t.Fatalf("recovered %d snapshot entries and %d log records: the test needs both", entries, walRecords)
			}
			st.Close()
			refillFree(st.Pool())

			m.Under = nil
			eng := sim.NewEngine()
			pool := bufpool.New(st.Pool().SegSize())
			want := imdb.New(eng, m, imdb.Config{Pool: pool}, nil)
			eng.Spawn("recover-model", func(env *sim.Env) {
				if _, _, err := want.Recover(env); err != nil {
					t.Errorf("model recover: %v", err)
				}
				want.Start()
				if err := want.Shutdown(env); err != nil {
					t.Errorf("model engine shutdown: %v", err)
				}
			})
			eng.Run()
			refillFree(pool)
			if !bytes.Equal(dumpStore(db.Store()), dumpStore(want.Store())) {
				t.Errorf("the recovered store (%d keys) differs from the model's (%d keys) once the device pages are rewritten",
					db.Store().Len(), want.Store().Len())
			}
			db.ReleaseBuffers()
			want.ReleaseBuffers()
			eng.Shutdown()
			for _, p := range []*bufpool.Pool{st.Pool(), pool} {
				if n := p.InFlight(); n != 0 {
					t.Errorf("%d pooled segments in flight after ReleaseBuffers and teardown", n)
				}
			}
		})
	}
}

// TestRecoveredEngineContinuesTheLog: an engine recovered from a power cut
// or a clean shutdown is started and logs more SETs and DELs under
// Always-Log, WAL-Snapshots and their log rotations included, and then the
// power goes again or it shuts down. Its first append continues the open
// segment's recovered, part-filled page from the buffer Recover restarted.
// The second recovery must give the first one's store with every
// acknowledged op of the continued life applied (and the op a cut caught in
// flight applied or not), no append of the continued life may have been
// refused, and nothing may stay in flight once the stack is closed.
func TestRecoveredEngineContinuesTheLog(t *testing.T) {
	for _, kind := range stackKinds {
		t.Run(kind.String(), func(t *testing.T) {
			full, end := life(t, kind, lifeKeys, lifeOps, lifeValueSize, 0)
			full.Close()
			for _, first := range []sim.Time{0, end / 2} {
				var cut sim.Time // the second cut, 2/3 into the continued life
				for _, second := range []string{"shutdown", "cut"} {
					st, _ := life(t, kind, lifeKeys, lifeOps, lifeValueSize, first)
					want, inFlight, start, end2 := continueLife(t, st, 300, cut)
					cut = start + (end2-start)*2/3
					db, _, _, _, _ := recoverFresh(t, st)
					got := storeMap(db.Store())
					if !reflect.DeepEqual(got, want) && (inFlight == nil || !reflect.DeepEqual(got, inFlight)) {
						t.Errorf("first cut %v, then %s: recovered %d keys, want the %d the continued life acknowledged",
							first, second, len(got), len(want))
					}
					db.ReleaseBuffers()
					st.Close()
					if n := st.Pool().InFlight(); n != 0 {
						t.Errorf("first cut %v, then %s: %d pooled segments leaked", first, second, n)
					}
				}
			}
		})
	}
}

// continueLife recovers the device st left into a fresh engine, starts it and
// runs ops SETs of varied sizes and DELs under Always-Log, with WAL-Snapshots
// as the log grows, then shuts it down; with cut > 0 the power goes at that
// instant instead. want is the recovered store with every acknowledged op
// applied, inFlight (nil if none) want with the op the cut caught, frozen or
// failed, applied too, and [start, end) the span of the ops.
func continueLife(tb testing.TB, st *exp.Stack, ops int, cut sim.Time) (want, inFlight map[string]string, start, end sim.Time) {
	tb.Helper()
	eng := sim.NewEngine()
	be, fs, closeBackend := reopen(tb, st, eng)
	db := imdb.New(eng, be, imdb.Config{
		Policy:             imdb.AlwaysLog,
		WALSnapshotTrigger: int64(ops*lifeValueSize) / 4,
		Pool:               st.Pool(),
	}, nil)
	eng.Spawn("continue", func(env *sim.Env) {
		if _, _, err := db.Recover(env); err != nil {
			tb.Errorf("recover: %v", err)
			return
		}
		want = storeMap(db.Store())
		start = env.Now()
		db.Start()
		for i := 0; i < ops; i++ {
			key := fmt.Sprintf("key:%06d", (i*104729)%(lifeKeys+50))
			inFlight = maps.Clone(want) // until acknowledged
			var err error
			if i%5 == 4 {
				delete(inFlight, key)
				err = db.Del(env, key)
			} else {
				v := bytes.Repeat([]byte{byte(i), 0xEE}, 50+(i*373)%1500)
				inFlight[key] = string(v)
				err = db.Set(env, key, v)
			}
			if err != nil {
				if cut == 0 {
					tb.Errorf("continued op %d: %v", i, err)
				}
				return
			}
			want, inFlight = inFlight, nil
		}
		db.WaitNoSnapshot(env)
		if err := db.Shutdown(env); err != nil {
			tb.Errorf("shutdown: %v", err)
		}
	})
	if cut > 0 {
		st.ArmPowerCut(cut)
		eng.RunUntil(cut)
		eng.Stop()
		st.Dev.FTL().Array().SetFaultHook(nil)
		end = cut
	} else {
		end = eng.Run()
	}
	eng.Shutdown()
	if n := db.Stats().WALStalls; n != 0 {
		tb.Errorf("the continued life stalled %d appends", n)
	}
	db.ReleaseBuffers()
	closeBackend()
	if fs != nil {
		// The files the continued life wrote are the remount's.
		st.FS.Close()
		st.FS = fs
	}
	return want, inFlight, start, end
}

// storeMap copies a store's keys and values into a map.
func storeMap(s *imdb.Store) map[string]string {
	m := make(map[string]string, s.Len())
	for i := 0; i < s.ListedLen(); i++ {
		if k := s.KeyAt(i); s.Get(k) != nil {
			m[k] = string(s.Get(k))
		}
	}
	return m
}

// BenchmarkRecover is the engine-level recovery of one snapshot image plus
// the log written since, on each backend: device reads, snapshot decode, WAL
// replay and store inserts, as bench/'s host_recover_ms times them.
func BenchmarkRecover(b *testing.B) {
	for _, kind := range stackKinds {
		b.Run(kind.String(), func(b *testing.B) {
			st, _ := life(b, kind, 4000, 12000, 2048, 0)
			defer st.Close()
			db, _, _, _, image := recoverFresh(b, st)
			defer db.ReleaseBuffers()
			n := int64(0)
			for _, run := range image {
				n += int64(len(run))
			}
			for _, seg := range db.LastRecovery().WAL {
				n += seg.Len
			}
			b.SetBytes(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db, _, _, _, _ := recoverFresh(b, st)
				db.ReleaseBuffers()
			}
		})
	}
}
