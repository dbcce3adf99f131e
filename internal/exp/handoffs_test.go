package exp

import (
	"testing"

	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/workload"
)

// TestSlimIOHandoffsPerOp pins the coroutine switches a SmallScale SlimIO
// stack pays per op. The WAL ring's completions are engine callbacks, so a
// preload SET pays only the driver's two handoffs into and out of the engine
// process (6.0 per SET under Always-Log and 4.0 under Periodical-Log while a
// CQ-handler process fired them), and the closed-loop run phase, whose
// clients are callbacks too, pays almost none (0.045 per op before).
func TestSlimIOHandoffsPerOp(t *testing.T) {
	for _, policy := range []imdb.LogPolicy{imdb.AlwaysLog, imdb.PeriodicalLog} {
		t.Run(policy.String(), func(t *testing.T) {
			sc := SmallScale()
			eng := sim.NewEngine()
			st, err := BuildStack(eng, SlimIOFDP, sc)
			if err != nil {
				t.Fatal(err)
			}
			db := imdb.New(eng, st.Backend, imdb.Config{Policy: policy, Pool: st.Pool(), WALSnapshotTrigger: sc.WALTriggerBytes}, nil)
			db.Start()
			wl := workload.RedisBench(20_000, sc.KeyRange)
			var preload, run float64
			eng.Spawn("driver", func(env *sim.Env) {
				h0 := eng.Handoffs()
				if err := workload.Preload(env, db, wl); err != nil {
					t.Error(err)
				}
				h1 := eng.Handoffs()
				runner := workload.Start(eng, db, wl)
				runner.Done.Wait(env)
				if r := runner.Result(); r.Failed > 0 || r.Ops != wl.Ops {
					t.Errorf("run phase: %d ops, %d failed, want %d", r.Ops, r.Failed, wl.Ops)
				}
				preload = float64(h1-h0) / float64(wl.KeyRange)
				run = float64(eng.Handoffs()-h1) / float64(wl.Ops)
				if err := db.Shutdown(env); err != nil {
					t.Error(err)
				}
			})
			eng.Run()
			t.Logf("handoffs per op: preload %.3f, run %.4f", preload, run)
			if preload > 2.0 {
				t.Errorf("preload: %.3f handoffs per SET, want <= 2.0", preload)
			}
			if run >= 0.01 {
				t.Errorf("run phase: %.4f handoffs per op, want < 0.01", run)
			}
			if err := st.Teardown(); err != nil {
				t.Error(err)
			}
		})
	}
}
