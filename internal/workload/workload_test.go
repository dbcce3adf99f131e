package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/wal"
)

// refusing is the in-memory model with every WAL append refused.
type refusing struct{ *imdb.Model }

func (refusing) WALAppend(*sim.Env, wal.Chain) error { return errors.New("refused") }

func newDB(eng *sim.Engine) *imdb.Engine {
	db := imdb.New(eng, &imdb.Model{Latency: 10 * sim.Microsecond}, imdb.Config{Policy: imdb.PeriodicalLog}, nil)
	db.Start()
	return db
}

func TestRedisBenchRuns(t *testing.T) {
	eng := sim.NewEngine()
	db := newDB(eng)
	cfg := RedisBench(500, 100)
	cfg.ValueSize = 256
	r := Start(eng, db, cfg)
	var done bool
	eng.Spawn("waiter", func(env *sim.Env) {
		r.Done.Wait(env)
		done = true
		db.Shutdown(env)
	})
	eng.Run()
	if !done {
		t.Fatal("workload never completed")
	}
	res := r.Result()
	if res.Ops != 500 {
		t.Fatalf("ops = %d, want 500", res.Ops)
	}
	if res.SetLatency.Count() != 500 || res.GetLatency.Count() != 0 {
		t.Fatalf("set=%d get=%d", res.SetLatency.Count(), res.GetLatency.Count())
	}
	if res.RPS() <= 0 {
		t.Fatal("non-positive RPS")
	}
	if db.Stats().Sets != 500 {
		t.Fatalf("engine saw %d sets", db.Stats().Sets)
	}
}

// A client whose writes are refused counts them as failed and keeps going:
// the run completes and every op is either done or failed.
func TestFailedOpsAreCounted(t *testing.T) {
	eng := sim.NewEngine()
	db := imdb.New(eng, refusing{&imdb.Model{}}, imdb.Config{Policy: imdb.PeriodicalLog}, nil)
	db.Start()
	r := Start(eng, db, RedisBench(200, 50))
	eng.Spawn("waiter", func(env *sim.Env) {
		r.Done.Wait(env)
		db.Shutdown(env)
	})
	eng.Run()
	res := r.Result()
	if res.Failed == 0 || res.Ops+res.Failed != 200 {
		t.Fatalf("ops=%d failed=%d, want some failed and 200 in all", res.Ops, res.Failed)
	}
	if res.SetLatency.Count() != res.Ops {
		t.Fatalf("%d latencies recorded for %d completed ops", res.SetLatency.Count(), res.Ops)
	}
}

func TestYCSBAMix(t *testing.T) {
	eng := sim.NewEngine()
	db := newDB(eng)
	cfg := YCSBA(2000, 200)
	cfg.ValueSize = 128
	eng.Spawn("setup", func(env *sim.Env) {
		if err := Preload(env, db, cfg); err != nil {
			t.Error(err)
			return
		}
		r := Start(env.Engine(), db, cfg)
		r.Done.Wait(env)
		res := r.Result()
		gets, sets := res.GetLatency.Count(), res.SetLatency.Count()
		if gets+sets != 2000 {
			t.Errorf("ops = %d", gets+sets)
		}
		ratio := float64(gets) / float64(gets+sets)
		if ratio < 0.4 || ratio > 0.6 {
			t.Errorf("GET ratio = %.2f, want ~0.5", ratio)
		}
		db.Shutdown(env)
	})
	eng.Run()
}

func TestZipfianSkew(t *testing.T) {
	// Zipfian traffic must be much more concentrated than uniform.
	concentration := func(dist Distribution) float64 {
		eng := sim.NewEngine()
		db := newDB(eng)
		cfg := Config{Clients: 4, Ops: 2000, KeyRange: 1000, KeySize: 8, ValueSize: 64, Dist: dist, Seed: 3}
		r := Start(eng, db, cfg)
		eng.Spawn("waiter", func(env *sim.Env) {
			r.Done.Wait(env)
			db.Shutdown(env)
		})
		eng.Run()
		// Concentration proxy: fraction of ops landing on the 10 hottest
		// store keys — approximate via store content? Instead count distinct
		// keys touched: zipf touches far fewer.
		return float64(db.Store().Len())
	}
	uni, zipf := concentration(Uniform), concentration(Zipfian)
	// YCSB θ=0.99 over 1000 items puts ~13% of mass on the hottest key, so
	// far fewer distinct keys get touched than under uniform draws.
	if zipf >= uni*0.7 {
		t.Fatalf("zipfian touched %v distinct keys vs uniform %v: not skewed", zipf, uni)
	}
}

func TestZipfHeadMass(t *testing.T) {
	// Item 0 must receive close to 1/zeta(n) of all draws.
	rng := rand.New(rand.NewSource(11))
	n := uint64(1000)
	zetan := zetaSum(n, zipfTheta)
	g := newZipfGen(rng, n, zipfTheta, zetan)
	const draws = 50000
	zeros := 0
	for i := 0; i < draws; i++ {
		if g.next() == 0 {
			zeros++
		}
	}
	want := 1 / zetan
	got := float64(zeros) / draws
	if got < want*0.8 || got > want*1.2 {
		t.Fatalf("P(0) = %.4f, want ~%.4f", got, want)
	}
}

func TestOpsSplitAcrossClients(t *testing.T) {
	eng := sim.NewEngine()
	db := newDB(eng)
	cfg := Config{Clients: 7, Ops: 100, KeyRange: 50, KeySize: 8, ValueSize: 32, Seed: 5}
	r := Start(eng, db, cfg)
	eng.Spawn("waiter", func(env *sim.Env) {
		r.Done.Wait(env)
		db.Shutdown(env)
	})
	eng.Run()
	if r.Result().Ops != 100 {
		t.Fatalf("ops = %d, want exactly 100 (uneven split)", r.Result().Ops)
	}
}

// A bounded run with fewer ops than clients gives the spare clients nothing
// to do; they must not run open-ended.
func TestFewerOpsThanClients(t *testing.T) {
	eng := sim.NewEngine()
	db := newDB(eng)
	r := Start(eng, db, Config{Clients: 8, Ops: 3, KeyRange: 50, KeySize: 8, ValueSize: 32, Seed: 5})
	eng.Spawn("waiter", func(env *sim.Env) {
		r.Done.Wait(env)
		db.Shutdown(env)
	})
	eng.Run()
	if !r.Done.Fired() || r.Result().Ops != 3 {
		t.Fatalf("done=%v ops=%d, want a finished run of exactly 3", r.Done.Fired(), r.Result().Ops)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, sim.Time) {
		eng := sim.NewEngine()
		db := newDB(eng)
		cfg := RedisBench(300, 64)
		cfg.ValueSize = 128
		r := Start(eng, db, cfg)
		var end sim.Time
		eng.Spawn("waiter", func(env *sim.Env) {
			r.Done.Wait(env)
			end = env.Now()
			db.Shutdown(env)
		})
		eng.Run()
		return int64(r.Result().SetLatency.Sum()), end
	}
	s1, e1 := run()
	s2, e2 := run()
	if s1 != s2 || e1 != e2 {
		t.Fatalf("nondeterministic: (%v,%v) vs (%v,%v)", s1, e1, s2, e2)
	}
}

func TestPreloadInsertsAllKeys(t *testing.T) {
	eng := sim.NewEngine()
	db := newDB(eng)
	eng.Spawn("loader", func(env *sim.Env) {
		cfg := Config{KeyRange: 150, KeySize: 8, ValueSize: 64}
		if err := Preload(env, db, cfg); err != nil {
			t.Error(err)
			return
		}
		db.Shutdown(env)
	})
	eng.Run()
	if db.Store().Len() != 150 {
		t.Fatalf("preloaded %d keys, want 150", db.Store().Len())
	}
	for _, k := range []string{"00000000", "00000149"} {
		if db.Store().Get(k) == nil {
			t.Fatalf("key %q missing", k)
		}
	}
}

func TestValuePoolCompressibility(t *testing.T) {
	pool := valuePool(8, 1024, 1)
	if len(pool) != 8 {
		t.Fatalf("pool size %d", len(pool))
	}
	for i, v := range pool {
		if len(v) != 1024 {
			t.Fatalf("value %d size %d", i, len(v))
		}
		// Second half must be zeros (compressible).
		for _, b := range v[512:] {
			if b != 0 {
				t.Fatal("incompressible tail")
			}
		}
	}
	if fmt.Sprintf("%x", pool[0][:8]) == fmt.Sprintf("%x", pool[1][:8]) {
		t.Fatal("pool values identical")
	}
}

func TestYCSBVariants(t *testing.T) {
	c := YCSBC(100, 50)
	if c.ReadRatio != 1.0 {
		t.Fatalf("YCSB-C = %+v", c)
	}
	// A read-only run must perform zero sets.
	eng := sim.NewEngine()
	db := newDB(eng)
	eng.Spawn("setup", func(env *sim.Env) {
		if err := Preload(env, db, c); err != nil {
			t.Error(err)
			return
		}
		cfg := c
		cfg.Ops = 200
		r := Start(env.Engine(), db, cfg)
		r.Done.Wait(env)
		if r.Result().SetLatency.Count() != 0 {
			t.Errorf("read-only run performed %d sets", r.Result().SetLatency.Count())
		}
		if r.Result().GetLatency.Count() != 200 {
			t.Errorf("gets = %d", r.Result().GetLatency.Count())
		}
		db.Shutdown(env)
	})
	eng.Run()
}

// The closed loop costs no coroutine switch of its own: a client is a pair
// of callbacks, so the only handoffs left are the engine's own processes
// (imdb-main, the flush ticker) passing control between them. With client
// processes every op paid a switch into the client and one out of it: 2.0
// handoffs per op here, 1.1 to 2.3 on the full stacks. The bound catches a
// return to that.
func TestClosedLoopHandoffsPerOp(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"redis-bench", RedisBench(2000, 500)},
		{"ycsb-a", YCSBA(2000, 200)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			db := newDB(eng)
			cfg := tc.cfg
			cfg.ValueSize = 128
			var before uint64
			var ops int64
			eng.Spawn("setup", func(env *sim.Env) {
				if err := Preload(env, db, cfg); err != nil {
					t.Error(err)
					return
				}
				before = eng.Handoffs()
				r := Start(eng, db, cfg)
				r.Done.Wait(env)
				ops = r.Result().Ops
				db.Shutdown(env)
			})
			eng.Run()
			if ops != cfg.Ops {
				t.Fatalf("ops = %d, want %d", ops, cfg.Ops)
			}
			perOp := float64(eng.Handoffs()-before) / float64(ops)
			t.Logf("%.3f handoffs per op", perOp)
			if perOp >= 0.5 {
				t.Fatalf("%.3f handoffs per op, want < 0.5", perOp)
			}
		})
	}
}
