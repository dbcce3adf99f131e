package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"time"

	"github.com/slimio/slimio/internal/baseline"
	"github.com/slimio/slimio/internal/core"
	"github.com/slimio/slimio/internal/exp"
	"github.com/slimio/slimio/internal/fdp"
	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/kernelio"
	"github.com/slimio/slimio/internal/nand"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/ssd"
	"github.com/slimio/slimio/internal/telemetry"
	"github.com/slimio/slimio/internal/vtrace"
	"github.com/slimio/slimio/internal/workload"
)

// sliceWidth is the virtual-time slice the engine is driven in; the host
// time of each slice is one sample of sim.slice_host_*.
const sliceWidth = 10 * sim.Millisecond

// engineWorkload describes a workload that runs the database engine on a
// full stack.
type engineWorkload struct {
	name   string
	kind   exp.BackendKind
	policy imdb.LogPolicy
	// traffic builds the client configuration for ops operations over the
	// scale's key range.
	traffic func(ops, keys int64) workload.Config
	// midSnapshots On-Demand-Snapshots are requested at even op-count marks
	// while clients keep running; finalSnapshot requests one once they stop.
	midSnapshots  int
	finalSnapshot bool
	// observed switches on the program's own tracer and telemetry plane.
	observed bool
	// opsPerSec is the whole-repetition rate (ops ÷ host_total_s) on the
	// 2-core sandbox; it only sizes the repetition, the result never reads it.
	opsPerSec float64
	// check asserts, from deterministic counts, that the layers this
	// workload is meant to exercise ran and the ones it bypasses did not.
	check func(c map[string]float64) []string
}

func slimioChecks(c map[string]float64) []string {
	var bad []string
	if c["kernelio.syscalls"] != 0 {
		bad = append(bad, "kernelio.syscalls != 0 on a passthru workload")
	}
	if c["uring.submitted"] <= 0 {
		bad = append(bad, "uring.submitted == 0 on a passthru workload")
	}
	if c["ssd.waf"] != 1 {
		bad = append(bad, fmt.Sprintf("ssd.waf = %v, want exactly 1 on FDP with separated lifetimes", c["ssd.waf"]))
	}
	return bad
}

var engineWorkloads = []*engineWorkload{
	{
		name: "set-always-slimio", kind: exp.SlimIOFDP, policy: imdb.AlwaysLog,
		traffic: workload.RedisBench, finalSnapshot: true,
		opsPerSec: 69_000,
		check:     slimioChecks,
	},
	{
		name: "set-periodical-baseline", kind: exp.BaselineF2FS, policy: imdb.PeriodicalLog,
		traffic: workload.RedisBench, finalSnapshot: true,
		opsPerSec: 47_500,
		check: func(c map[string]float64) []string {
			var bad []string
			if c["kernelio.syscalls"] <= 0 {
				bad = append(bad, "kernelio.syscalls == 0 on the kernel path")
			}
			if c["uring.submitted"] != 0 {
				bad = append(bad, "uring.submitted != 0 on the kernel path")
			}
			return bad
		},
	},
	{
		name: "ycsba-snap-slimio", kind: exp.SlimIOFDP, policy: imdb.PeriodicalLog,
		traffic: workload.YCSBA, midSnapshots: 4,
		opsPerSec: 175_000,
		check: func(c map[string]float64) []string {
			bad := slimioChecks(c)
			if c["imdb.snapshots"] < 4 {
				bad = append(bad, fmt.Sprintf("imdb.snapshots = %v, want >= 4", c["imdb.snapshots"]))
			}
			if share := c["imdb.get_share"]; share < 0.45 || share > 0.55 {
				bad = append(bad, fmt.Sprintf("GET share %v outside 45-55 %%", share))
			}
			return bad
		},
	},
	{
		name: "set-always-slimio-observed", kind: exp.SlimIOFDP, policy: imdb.AlwaysLog,
		traffic: workload.RedisBench, finalSnapshot: true, observed: true,
		opsPerSec: 70_000,
		check: func(c map[string]float64) []string {
			bad := slimioChecks(c)
			if c["vtrace.spans"] <= 0 {
				bad = append(bad, "vtrace recorded no spans")
			}
			if c["telemetry.samples"] <= 0 {
				bad = append(bad, "telemetry took no samples")
			}
			return bad
		},
	},
}

// repResult is what one repetition measured.
type repResult struct {
	ops, failed int64

	setupS, runS, cpuS, totalS float64
	recoverMs                  float64

	counts      map[string]float64 // simCounts plus workload-local check inputs
	storeDigest uint64
	checks      []string // failed assertions; empty when the repetition is sound

	allocsPerOp, allocBytesPerOp float64
	gcCycles                     float64
	gcPauseMs                    float64
	virtRunS                     float64
	slicesMs                     []float64 // host ms per virtual slice of the measured phase
}

func (r *repResult) digest() string {
	det := make(map[string]float64, len(simCounts))
	for _, m := range simCounts {
		det[m.Name] = r.counts[m.Name]
	}
	return simDigest(det, r.storeDigest)
}

// measured fills the measured-phase readings from the marks taken at its
// two ends.
func (r *repResult) measured(ops int64, m0, m1 hostMark, v0, v1 sim.Time) {
	r.ops = ops
	r.runS = m1.wall.Sub(m0.wall).Seconds()
	r.cpuS = (m1.cpu - m0.cpu).Seconds()
	r.virtRunS = v1.Sub(v0).Seconds()
	r.allocsPerOp = float64(m1.mallocs-m0.mallocs) / float64(ops)
	r.allocBytesPerOp = float64(m1.bytes-m0.bytes) / float64(ops)
	r.gcCycles = float64(m1.gcCycles - m0.gcCycles)
	r.gcPauseMs = float64(m1.gcPause-m0.gcPause) / 1e6
}

// repOptions selects what a repetition records beyond the timings.
type repOptions struct {
	rec  *recorder // non-nil: interpose on Backend and FTL and record spans
	prof *profiler // non-nil: CPU-profile the measured phase
	tiny bool      // smoke test: exp.TinyScale devices and keyspace
}

// runEngineRep builds a fresh stack, runs ops operations of w's traffic,
// recovers into a new engine, verifies the recovered store and tears down.
func runEngineRep(w *engineWorkload, ops, seed int64, opt repOptions) (*repResult, error) {
	res := &repResult{counts: make(map[string]float64)}
	rec := opt.rec
	rep := rec.openRep()

	// Setup: stack, engine, preload.
	m0 := markHost()
	ph := rec.openPhase("setup", 0)
	eng := sim.NewEngine()
	sc := exp.SmallScale()
	if opt.tiny {
		sc = exp.TinyScale()
	}
	sc.Parallel = 1
	var tele *telemetry.Cell
	if w.observed {
		sc.Trace = vtrace.NewRegistry()
		sc.Telemetry = telemetry.NewRegistry(sc.RPSInterval)
		tele = sc.Telemetry.Cell(w.name)
	}
	st, err := buildStack(eng, w.kind, sc, rec)
	if err != nil {
		return nil, fmt.Errorf("build stack: %w", err)
	}
	db := imdb.New(eng, st.Backend, imdb.Config{
		Policy: w.policy, Trace: st.Trace, Pool: st.Pool(),
		WALSnapshotTrigger: sc.WALTriggerBytes,
	}, nil)
	db.Start()
	exp.AttachStackTelemetry(st, tele)
	tele.SetTracer(st.Trace)
	tele.Start(eng)
	wl := w.traffic(ops, sc.KeyRange)
	wl.Seed = seed

	// The driver process marks the phase boundaries on the host clock as it
	// crosses them; only one simulated process runs at a time, so the marks
	// are exact.
	var (
		mRun0, mRun1 hostMark
		vRun0, vRun1 sim.Time
		measuring    bool
		done         bool
		runErr       error
		result       *workload.Result
	)
	eng.Spawn("bench-driver", func(env *sim.Env) {
		defer func() { done = true }()
		// Every workload preloads the keyspace: the measured phase is then
		// steady-state overwrite, and set-up is long enough to gate.
		if err := workload.Preload(env, db, wl); err != nil {
			runErr = fmt.Errorf("preload: %w", err)
			return
		}
		rec.closePhase(ph, env.Now())
		ph = rec.openPhase("run", env.Now())
		opt.prof.start()
		mRun0, vRun0 = markHost(), env.Now()
		measuring = true
		runner := workload.Start(env.Engine(), db, wl)
		for k := 1; k <= w.midSnapshots; k++ {
			mark := ops * int64(k) / int64(w.midSnapshots+1)
			for runner.Result().Ops < mark {
				env.Sleep(sim.Millisecond)
			}
			db.WaitNoSnapshot(env)
			db.TriggerSnapshot(imdb.OnDemandSnapshot).Reply.Wait(env)
		}
		runner.Done.Wait(env)
		measuring = false
		mRun1, vRun1 = markHost(), env.Now()
		opt.prof.stop()
		result = runner.Result()
		rec.closePhase(ph, env.Now())
		ph = rec.openPhase("finish", env.Now())
		if w.finalSnapshot {
			db.TriggerSnapshot(imdb.OnDemandSnapshot).Reply.Wait(env)
		}
		db.WaitNoSnapshot(env)
		db.Shutdown(env)
		tele.Stop()
	})
	for !done {
		t := time.Now()
		eng.RunUntil(eng.Now().Add(sliceWidth))
		if measuring {
			res.slicesMs = append(res.slicesMs, float64(time.Since(t).Nanoseconds())/1e6)
		}
		if !done && eng.Pending() == 0 {
			return nil, fmt.Errorf("simulation drained before the driver finished (deadlock)")
		}
	}
	eng.Run()
	mFinish := markHost()
	rec.closePhase(ph, eng.Now())
	if runErr != nil {
		return nil, runErr
	}
	res.setupS = mRun0.wall.Sub(m0.wall).Seconds()
	res.measured(result.Ops, mRun0, mRun1, vRun0, vRun1)
	finishS := mFinish.wall.Sub(mRun1.wall).Seconds()

	collectEngineCounts(res.counts, st, db, result, eng.Now())
	if st.Trace != nil {
		res.counts["vtrace.spans"] = float64(len(st.Trace.Spans()))
	}
	res.counts["telemetry.samples"] = float64(tele.Samples())

	// Recovery: a fresh engine on the surviving device, kernel caches cold.
	ph = rec.openPhase("recover", eng.Now())
	tRec := time.Now()
	db2 := imdb.New(eng, st.Backend, imdb.Config{Pool: st.Pool()}, nil)
	var recErr error
	eng.Spawn("bench-recover", func(env *sim.Env) {
		if st.FS != nil {
			st.FS.DropCaches()
		}
		v0 := env.Now()
		if _, _, recErr = db2.Recover(env); recErr != nil {
			return
		}
		res.recoverMs = float64(time.Since(tRec).Nanoseconds()) / 1e6
		res.counts["imdb.virt_recovery_ms"] = float64(env.Now().Sub(v0)) / float64(sim.Millisecond)
	})
	eng.Run()
	recoverS := time.Since(tRec).Seconds()
	rec.closePhase(ph, eng.Now())
	if recErr != nil {
		return nil, fmt.Errorf("recover: %w", recErr)
	}
	if lr := db2.LastRecovery(); lr != nil && len(lr.Degraded) > 0 {
		res.checks = append(res.checks, fmt.Sprintf("recovery degraded: %v", lr.Degraded))
	}
	res.storeDigest, err = compareStores(db.Store(), db2.Store())
	if err != nil {
		res.checks = append(res.checks, err.Error())
	}

	// Teardown: every pooled segment must come back.
	ph = rec.openPhase("teardown", eng.Now())
	tTear := time.Now()
	eng.Shutdown()
	db2.ReleaseBuffers()
	pool := st.Pool()
	cell := exp.CellResult{Label: w.name, Stack: st}
	if err := cell.ReleaseHeavy(); err != nil {
		res.checks = append(res.checks, err.Error())
	}
	teardownS := time.Since(tTear).Seconds()
	rec.closePhase(ph, eng.Now())
	rec.closePhase(rep, eng.Now())
	res.counts["bufpool.inflight_end"] = float64(pool.InFlight())
	res.totalS = res.setupS + res.runS + finishS + recoverS + teardownS

	res.checks = append(res.checks, w.check(res.counts)...)
	if res.ops != ops {
		res.checks = append(res.checks, fmt.Sprintf("completed %d ops, want %d", res.ops, ops))
	}
	return res, nil
}

// buildStack assembles the stack for kind. Untraced, it is exp.BuildStack —
// what the experiments run. Traced, the same layers are wired by hand so the
// Backend and FTL interposers can sit on the two public interfaces; the
// traced run's sim_digest must equal the untraced one, which proves the two
// builders equivalent.
func buildStack(eng *sim.Engine, kind exp.BackendKind, sc exp.Scale, rec *recorder) (*exp.Stack, error) {
	if rec == nil {
		return exp.BuildStack(eng, kind, sc)
	}
	arr, err := nand.New(nand.DefaultGeometry(sc.DeviceBytes), nand.DefaultLatencies())
	if err != nil {
		return nil, err
	}
	arr.SetClock(eng)
	var tr *vtrace.Tracer
	if sc.Trace != nil {
		tr = sc.Trace.Tracer(kind.String())
	}
	arr.SetTracer(tr)
	st := &exp.Stack{Kind: kind, Eng: eng, Trace: tr}
	var inner ssd.FTL
	switch kind {
	case exp.SlimIOFDP:
		inner, err = fdp.New(arr, fdp.Config{Trace: tr})
	case exp.BaselineF2FS:
		inner, err = fdp.NewConventional(arr, fdp.Config{Trace: tr})
	default:
		return nil, fmt.Errorf("traced stack: unsupported kind %s", kind)
	}
	if err != nil {
		return nil, err
	}
	st.Dev = ssd.New(&tracedFTL{FTL: inner, rec: rec}, ssd.Config{Trace: tr})
	switch kind {
	case exp.SlimIOFDP:
		slotPages := sc.SlotBytes / int64(arr.Geometry().PageSize)
		be, err := core.New(eng, st.Dev, core.Config{SlotPages: slotPages, Trace: tr})
		if err != nil {
			return nil, err
		}
		st.Slim = be
		st.Backend = &tracedBackend{Backend: be, rec: rec, prefix: "core"}
	case exp.BaselineF2FS:
		st.FS = kernelio.NewFilesystem(eng, st.Dev, kernelio.F2FS(), kernelio.SchedNone, kernelio.DefaultCosts())
		st.FS.SetTracer(tr)
		be, err := baseline.New(st.FS)
		if err != nil {
			return nil, err
		}
		st.Backend = &tracedBackend{Backend: be, rec: rec, prefix: "baseline"}
	}
	return st, nil
}

// unwrapFTL returns the translation layer below the tracing interposer.
func unwrapFTL(f ssd.FTL) ssd.FTL {
	if t, ok := f.(*tracedFTL); ok {
		return t.FTL
	}
	return f
}

// collectEngineCounts reads the deterministic counts from the layers' public
// getters once the run has shut down.
func collectEngineCounts(c map[string]float64, st *exp.Stack, db *imdb.Engine, wr *workload.Result, end sim.Time) {
	es := db.Stats()
	c["workload.ops"] = float64(wr.Ops)
	// A failed client op panics the simulation, so a run that gets here had
	// none.
	c["workload.failed_ops"] = 0
	c["imdb.virt_ops_per_s"] = wr.RPS()
	c["imdb.virt_set_p50_us"] = usec(wr.SetLatency.P50())
	c["imdb.virt_set_p999_us"] = usec(wr.SetLatency.P999())
	c["imdb.virt_get_p999_us"] = usec(wr.GetLatency.P999())
	var snapTotal sim.Duration
	var raw, comp int64
	for _, ev := range es.Snapshots {
		snapTotal += ev.Duration
		raw += ev.RawBytes
		comp += ev.CompressedBytes
	}
	if n := len(es.Snapshots); n > 0 {
		c["imdb.virt_snapshot_ms"] = float64(snapTotal) / float64(n) / float64(sim.Millisecond)
	}
	if es.BaseMemory > 0 {
		c["imdb.mem_peak_ratio"] = float64(es.PeakMemory) / float64(es.BaseMemory)
	}
	c["imdb.snapshots"] = float64(len(es.Snapshots))
	c["imdb.wal_syncs"] = float64(es.WALSyncs)
	c["imdb.wal_stalls"] = float64(es.WALStalls)
	c["imdb.cow_copies"] = float64(es.COWCopies)
	c["imdb.get_share"] = float64(wr.GetLatency.Count()) / float64(wr.Ops)
	c["snapshot.raw_mb"] = float64(raw) / (1 << 20)
	if raw > 0 {
		c["snapshot.compress_ratio"] = float64(comp) / float64(raw)
	}
	collectDeviceCounts(c, st.Dev, end)
	if st.Slim != nil {
		rs := st.Slim.WALRing().Stats()
		sub, sys := rs.Submitted, rs.Syscalls
		if ring := st.Slim.SnapshotRing(); ring != nil {
			// Each snapshot opens its own ring; only the latest is reachable.
			ss := ring.Stats()
			sub += ss.Submitted
			sys += ss.Syscalls
		}
		c["uring.submitted"] = float64(sub)
		c["uring.syscalls"] = float64(sys)
	}
	if st.FS != nil {
		fs := st.FS.Stats()
		c["kernelio.syscalls"] = float64(fs.Syscalls)
		c["kernelio.commits"] = float64(fs.Commits)
		c["kernelio.writeback_pages"] = float64(fs.WritebackPages)
		c["kernelio.throttle_stalls"] = float64(fs.ThrottleStalls)
		if lookups := fs.CacheHits + fs.CacheMisses; lookups > 0 {
			c["kernelio.cache_hit_ratio"] = float64(fs.CacheHits) / float64(lookups)
		}
	}
}

// collectDeviceCounts reads the ssd, fdp, nand and bufpool counts; end is the
// virtual time the die-busy fraction is taken over.
func collectDeviceCounts(c map[string]float64, dev *ssd.Device, end sim.Time) {
	ds := dev.Stats()
	io := dev.IOStats()
	c["ssd.waf"] = ds.WAF()
	c["ssd.host_pages"] = float64(ds.HostWritePages)
	c["ssd.retries"] = float64(io.ReadRetries + io.WriteRetries)
	c["fdp.gc_copied_pages"] = float64(ds.GCCopiedPages)
	if f, ok := unwrapFTL(dev.FTL()).(interface{ Stats() fdp.Stats }); ok {
		c["fdp.rus_reclaimed"] = float64(f.Stats().RUsReclaimed)
	}
	arr := dev.FTL().Array()
	ns := arr.Stats()
	c["nand.programs"] = float64(ns.Programs)
	c["nand.reads"] = float64(ns.Reads)
	c["nand.erases"] = float64(ns.Erases)
	dies := arr.Geometry().Dies()
	var busy sim.Duration
	for d := 0; d < dies; d++ {
		busy += arr.DieBusyTotal(d)
	}
	if end > 0 {
		c["nand.die_busy_frac"] = float64(busy) / (float64(dies) * float64(end))
	}
	c["bufpool.allocated_segs"] = float64(arr.Pool().Allocated())
}

func usec(d sim.Duration) float64 { return float64(d) / float64(sim.Microsecond) }

// compareStores checks that got holds exactly want's keys and bytes, and
// returns a digest of want in sorted key order.
func compareStores(want, got *imdb.Store) (uint64, error) {
	keys := make([]string, 0, want.Len())
	for i := 0; i < want.ListedLen(); i++ {
		k := want.KeyAt(i)
		if want.Get(k) != nil {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var d digest
	var firstErr error
	for _, k := range keys {
		v := want.Get(k)
		d.str(k)
		d.bytes(v)
		if firstErr == nil && !bytes.Equal(v, got.Get(k)) {
			firstErr = fmt.Errorf("recovered store differs from the pre-crash store at key %q", k)
		}
	}
	if firstErr == nil && got.Len() != want.Len() {
		firstErr = fmt.Errorf("recovered store holds %d keys, pre-crash store %d", got.Len(), want.Len())
	}
	return uint64(d), firstErr
}

// profiler CPU-profiles one measured phase into path. A nil profiler does
// nothing.
type profiler struct {
	path string
	f    *os.File
	err  error
}

func (p *profiler) start() {
	if p == nil {
		return
	}
	if p.f, p.err = os.Create(p.path); p.err != nil {
		return
	}
	if p.err = pprof.StartCPUProfile(p.f); p.err != nil {
		p.f.Close()
		p.f = nil
	}
}

func (p *profiler) stop() {
	if p == nil || p.f == nil {
		return
	}
	pprof.StopCPUProfile()
	p.err = p.f.Close()
	p.f = nil
}
