package workload

import (
	"math/rand"
	"testing"

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
