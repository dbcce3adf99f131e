package imdb_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"github.com/slimio/slimio/internal/baseline"
	"github.com/slimio/slimio/internal/bufpool"
	"github.com/slimio/slimio/internal/core"
	"github.com/slimio/slimio/internal/exp"
	"github.com/slimio/slimio/internal/imdb"
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
	eng := sim.NewEngine()
	st, err := exp.BuildStack(eng, kind, stackScale())
	if err != nil {
		tb.Fatal(err)
	}
	if cut > 0 {
		st.ArmPowerCut(cut)
	}
	db := imdb.New(eng, st.Backend, imdb.Config{
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
// restarted process would.
func reopen(tb testing.TB, st *exp.Stack, eng *sim.Engine) (be imdb.Backend, closeBackend func()) {
	tb.Helper()
	if st.FS != nil {
		nbe, err := baseline.Remount(st.FS.Remount(eng))
		if err != nil {
			tb.Fatal(err)
		}
		return nbe, nbe.Close
	}
	nbe, err := core.New(eng, st.Dev, core.Config{SlotPages: stackScale().SlotBytes / int64(st.Dev.PageSize())})
	if err != nil {
		tb.Fatal(err)
	}
	return nbe, nbe.Close
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
	be, closeBackend := reopen(tb, st, eng)
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
// once the stack is closed, refilling every pooled segment — the device
// pages the image and the log were read from included — leaves the store
// untouched too; it would not if a snapshot entry or a replayed record were
// a view of a page.
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
					if len(seg.Records) != 0 {
						t.Errorf("cut %v: LastRecovery still holds %d replayed records of wal segment %d", cut, len(seg.Records), i)
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
				if n := st.Pool().InFlight(); n != 0 {
					t.Errorf("cut %v: %d pooled segments leaked", cut, n)
				}
				drawn := make([]*bufpool.Segment, st.Pool().Allocated())
				for i := range drawn {
					drawn[i] = st.Pool().Get()
					b := drawn[i].Bytes()
					for j := range b {
						b[j] = 0xFF
					}
				}
				if !bytes.Equal(dump, dumpStore(db1.Store())) {
					t.Errorf("cut %v: the store changed when the freed device pages were refilled", cut)
				}
				for _, s := range drawn {
					s.Release()
				}
			}
		})
	}
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
				recoverFresh(b, st)
			}
		})
	}
}
