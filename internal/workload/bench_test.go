package workload

import (
	"math/rand"
	"testing"

	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/sim"
)

func BenchmarkZipfNext(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	zetan := zetaSum(1_000_000, zipfTheta)
	g := newZipfGen(rng, 1_000_000, zipfTheta, zetan)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.next()
	}
}

func BenchmarkZetaSum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = zetaSum(100_000, zipfTheta)
	}
}

// BenchmarkClosedLoopYCSBA measures the host cost of one closed-loop YCSB-A
// operation against the in-memory test backend: the client's callbacks, the
// request queue and the engine's apply, with no device below. It reports
// coroutine handoffs per op beside ns/op.
func BenchmarkClosedLoopYCSBA(b *testing.B) {
	eng := sim.NewEngine()
	db := newDB(eng)
	cfg := YCSBA(int64(b.N), 1000)
	cfg.ValueSize = 256
	eng.Spawn("driver", func(env *sim.Env) {
		if err := Preload(env, db, cfg); err != nil {
			b.Error(err)
			return
		}
		h0 := eng.Handoffs()
		b.ResetTimer()
		r := Start(eng, db, cfg)
		r.Done.Wait(env)
		b.StopTimer()
		b.ReportMetric(float64(eng.Handoffs()-h0)/float64(b.N), "handoffs/op")
		db.Shutdown(env)
	})
	eng.Run()
}

// closedLoopAllocs reports the heap allocations per operation of a
// closed-loop run against the in-memory model backend: the client
// callbacks, the request queue, the engine's apply and, for SETs, the WAL
// buffer and the model's append and sync. The fixed cost of a run (engine,
// processes, preload, the first draw of each key) is measured on a short run
// and subtracted.
func closedLoopAllocs(policy imdb.LogPolicy, readRatio float64) float64 {
	run := func(ops int64) float64 {
		return testing.AllocsPerRun(3, func() {
			eng := sim.NewEngine()
			db := imdb.New(eng, &imdb.Model{Latency: 10 * sim.Microsecond}, imdb.Config{Policy: policy}, nil)
			db.Start()
			cfg := YCSBA(ops, 64)
			cfg.ValueSize, cfg.ReadRatio = 256, readRatio
			eng.Spawn("driver", func(env *sim.Env) {
				if err := Preload(env, db, cfg); err != nil {
					panic(err)
				}
				Start(eng, db, cfg).Done.Wait(env)
				if err := db.Shutdown(env); err != nil {
					panic(err)
				}
			})
			eng.Run()
		})
	}
	const short, long = 2000, 20000
	return (run(long) - run(short)) / (long - short)
}

// TestClosedLoopAllocBudget pins the closed-loop round trip's allocations
// on the model backend, for SET and GET under both policies: a client
// reuses one Request and its Reply, the engine fires the Response inside the
// Request and reuses its batch, and the WAL buffer frames a record without a
// digest object, so a GET allocates nothing. A SET's share is its drain's:
// the buffer hands its segment list to the backend and starts another, and
// the model copies the appended bytes, once per event-loop batch of 8.
func TestClosedLoopAllocBudget(t *testing.T) {
	for _, c := range []struct {
		policy    imdb.LogPolicy
		readRatio float64
		budget    float64
	}{
		{imdb.PeriodicalLog, 0, 0.39},
		{imdb.AlwaysLog, 0, 0.39},
		{imdb.PeriodicalLog, 1, 0},
		{imdb.AlwaysLog, 1, 0},
	} {
		op := "SET"
		if c.readRatio == 1 {
			op = "GET"
		}
		if got := closedLoopAllocs(c.policy, c.readRatio); got > c.budget {
			t.Errorf("%s under %v: %.4f allocations per op, budget %.2f", op, c.policy, got, c.budget)
		}
	}
}
