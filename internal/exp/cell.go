package exp

import (
	"errors"
	"fmt"

	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/metrics"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/telemetry"
	"github.com/slimio/slimio/internal/vtrace"
	"github.com/slimio/slimio/internal/workload"
)

// CellConfig describes one measured configuration (one row-cell of a
// paper table).
type CellConfig struct {
	Kind   BackendKind
	Policy imdb.LogPolicy
	Scale  Scale
	// Workload is the per-repetition driver; its Ops field is overridden
	// by Scale.OpsPerRep.
	Workload workload.Config
	// onDemandPerRep triggers an On-Demand-Snapshot at the end of every
	// repetition (the redis-benchmark protocol of §5.1).
	onDemandPerRep bool
	// disableWALSnapshots turns off the size trigger (for WAL-only and
	// snapshot-only studies).
	disableWALSnapshots bool
	// Preload inserts the whole keyspace before measuring (YCSB load
	// phase; also used by snapshot-only studies).
	Preload bool
	// snapshotOnly replaces client traffic with a single On-Demand-Snapshot
	// over a preloaded dataset (the paper's "Snapshot Only" scenario).
	snapshotOnly bool
	// onDemandMidRun triggers one On-Demand-Snapshot once ~40% of each
	// repetition's operations have completed, so it overlaps live traffic
	// (the paper's "Snapshot & WAL" scenario).
	onDemandMidRun bool
	// gcPressure puts the device under sustained garbage collection for the
	// whole run (the paper's "under GC" scenario). At 1/500 scale the
	// free-space dynamics behind organic steady-state GC cannot form, so
	// the controller work is injected on the dies (see DESIGN.md).
	gcPressure bool
	// recoverAfter, once the workload has drained, recovers the durable state
	// into a fresh engine on the same stack and times the load (Table 5).
	recoverAfter bool
	// traceLabel overrides the cell's tracer label (default "Kind/Policy").
	// Runners that launch several cells with the same kind and policy must
	// set it: concurrent cells sharing a registry label would share one
	// tracer, which is both a data race and a scrambled trace.
	traceLabel string
}

// Injected GC intensity: fraction of every die occupied by internal GC work
// while gcPressure is on, and the injection granule.
const (
	gcPressureDuty   = 0.6
	gcPressurePeriod = 2 * sim.Millisecond
)

// CellResult aggregates everything a table row needs.
type CellResult struct {
	Label  string
	config CellConfig

	// Phase-split request rates (ops/s of virtual time).
	walOnlyRPS float64
	snapRPS    float64
	AvgRPS     float64

	// Memory (bytes): steady state and snapshot-period peak.
	walOnlyMem int64
	snapMem    int64

	SetP999 sim.Duration
	GetP999 sim.Duration

	Snapshots        []imdb.SnapshotEvent
	MeanSnapshotTime sim.Duration

	// Set by CellConfig.recoverAfter.
	recoveryTime     sim.Duration
	recoveredEntries int64

	waf      float64
	duration sim.Duration
	series   *metrics.Series
	engine   imdb.Stats
	Stack    *Stack
	// Trace is the cell's span tracer (nil when Scale.Trace is unset).
	trace *vtrace.Tracer

	// Per-operation latencies, merged across repetitions.
	setHist, getHist metrics.Histogram
}

// observeCell is the prologue every cell runner shares: it resolves the
// cell's tracer (sc.tracer, which BuildStackN picks up) and telemetry cell
// from the run's registries under label, nil when the registry is unset, and
// returns the two halves of the cell's observation. attach, called once the
// stack is built (db is nil for a cell with several engines), registers the
// probes, hands the tracer's trailing spans to the flight record and starts
// the sampling tick — which the runner stops with tele.Stop at the virtual
// instant its workload completes, or the engine never drains. finish, which
// the runner defers at once, is the epilogue of every exit: it stops the
// tick, adds the stack's fault-handling counts to sc.Metrics, and has a
// panicking cell dump its trailing samples and spans before the panic
// propagates. That covers the engine's deadlock panic and a panic inside a
// process body or engine callback, which the engine re-raises at the caller
// of Run.
func (sc *Scale) observeCell(label string) (tele *telemetry.Cell, attach func(*sim.Engine, *Stack, *imdb.Engine), finish func()) {
	if sc.Trace != nil {
		sc.tracer = sc.Trace.Tracer(label)
	}
	if sc.Telemetry != nil {
		tele = sc.Telemetry.Cell(label)
	}
	var st *Stack
	attach = func(eng *sim.Engine, built *Stack, db *imdb.Engine) {
		st = built
		AttachStackTelemetry(st, tele)
		attachEngineTelemetry(db, tele)
		tele.SetTracer(st.Trace)
		tele.Start(eng)
	}
	counters := sc.Metrics
	finish = func() {
		tele.Stop()
		if st != nil && counters != nil {
			st.addFaultCounters(counters)
		}
		if r := recover(); r != nil {
			tele.DumpFlight(fmt.Sprintf("panic: %v", r)) //nolint:errcheck // repanicking
			panic(r)
		}
	}
	return tele, attach, finish
}

// addFaultCounters adds the fault-handling counts the stack's layers keep in
// their own Stats — injected faults, the FTL's retirements and losses, the
// front-ends' retries and failures — into c under the names the counter dump
// prints, zeros skipped.
func (st *Stack) addFaultCounters(c *metrics.Counter) {
	st.Fault.Stats().AddTo(c)
	fs, io := st.Dev.Stats(), st.ioStats()
	for _, kv := range []metrics.KV{
		{Key: "fdp.program_fail", Value: fs.ProgramFailures},
		{Key: "fdp.block_retired", Value: fs.RetiredBlocks},
		{Key: "fdp.gc_read_retry", Value: fs.GCReadRetries},
		{Key: "fdp.lpa_lost", Value: fs.LostPages},
		{Key: "fdp.erase_fail", Value: fs.EraseFailures},
		{Key: "fdp.torn_write", Value: fs.TornWrites},
		{Key: "ssd.read_retry", Value: io.ReadRetries},
		{Key: "ssd.write_retry", Value: io.WriteRetries},
		{Key: "ssd.read_fail", Value: io.ReadFailures},
		{Key: "ssd.write_fail", Value: io.WriteFailures},
	} {
		if kv.Value != 0 {
			c.Inc(kv.Key, kv.Value)
		}
	}
}

// RunCell builds the stack, runs Reps repetitions of the workload, and
// collects the cell metrics.
func RunCell(cfg CellConfig) (*CellResult, error) {
	eng := sim.NewEngine()
	label := cfg.traceLabel
	if label == "" {
		label = fmt.Sprintf("%s/%s", cfg.Kind, cfg.Policy)
	}
	sc := cfg.Scale
	tele, attach, finish := sc.observeCell(label)
	defer finish()
	st, err := BuildStack(eng, cfg.Kind, sc)
	if err != nil {
		return nil, err
	}
	series := metrics.NewSeries(cfg.Scale.RPSInterval)

	dbCfg := imdb.Config{Policy: cfg.Policy, Trace: st.Trace, Pool: st.Pool()}
	if !cfg.disableWALSnapshots {
		dbCfg.WALSnapshotTrigger = cfg.Scale.WALTriggerBytes
	}
	db := imdb.New(eng, st.Backend, dbCfg, series)
	db.Start()

	attach(eng, st, db)

	wl := cfg.Workload
	wl.Ops = cfg.Scale.OpsPerRep
	if cfg.Scale.ValueSize > 0 {
		wl.ValueSize = cfg.Scale.ValueSize
	}

	stopGC := func() {}
	if cfg.gcPressure {
		stopGC = st.Dev.InjectGCPressure(eng, gcPressureDuty, gcPressurePeriod)
	}

	res := &CellResult{Label: label, config: cfg, series: series, Stack: st, trace: st.Trace}
	var runErr error
	var endAt sim.Time
	eng.Spawn("driver", func(env *sim.Env) {
		defer func() {
			stopGC()
			tele.Stop()
		}()
		runErr = func() error {
			if cfg.Preload || cfg.snapshotOnly {
				if err := workload.Preload(env, db, wl); err != nil {
					return err
				}
			}
			if cfg.snapshotOnly {
				trig := db.TriggerSnapshot(imdb.OnDemandSnapshot)
				trig.Reply.Wait(env)
				return nil
			}
			for rep := 0; rep < max(1, cfg.Scale.Reps); rep++ {
				repWL := wl
				repWL.Seed = wl.Seed + int64(rep)*1000003
				runner := workload.Start(env.Engine(), db, repWL)
				r := runner.Result()
				if cfg.onDemandMidRun {
					target := repWL.Ops * 2 / 5
					for r.Ops+r.Failed < target {
						env.Sleep(5 * sim.Millisecond)
					}
					trig := db.TriggerSnapshot(imdb.OnDemandSnapshot)
					trig.Reply.Wait(env)
				}
				runner.Done.Wait(env)
				if r.Failed > 0 {
					return fmt.Errorf("exp: %s: %d of %d client ops failed", label, r.Failed, r.Ops+r.Failed)
				}
				res.setHist.Merge(&r.SetLatency)
				res.getHist.Merge(&r.GetLatency)
				if cfg.onDemandPerRep {
					trig := db.TriggerSnapshot(imdb.OnDemandSnapshot)
					trig.Reply.Wait(env)
					db.WaitNoSnapshot(env)
				}
			}
			return nil
		}()
		// Every exit shuts the engine down: until then its flush ticker keeps
		// rescheduling itself and eng.Run never returns.
		db.WaitNoSnapshot(env)
		runErr = errors.Join(runErr, db.Shutdown(env))
		endAt = env.Now()
	})
	eng.Run()
	if _, err := series.Errors(); err != nil {
		runErr = errors.Join(runErr, fmt.Errorf("exp: %s: %w", label, err))
	}
	if runErr != nil {
		tele.DumpFlight("run error: " + runErr.Error()) //nolint:errcheck // the run error wins
		eng.Shutdown()
		return nil, runErr
	}

	res.duration = endAt.Sub(0)
	res.engine = db.Stats()
	res.Snapshots = res.engine.Snapshots
	res.waf = st.Dev.Stats().WAF()
	res.walOnlyMem = res.engine.BaseMemory
	res.snapMem = res.engine.PeakMemory
	if res.snapMem < res.walOnlyMem {
		res.snapMem = res.walOnlyMem
	}
	res.SetP999 = res.setHist.P999()
	res.GetP999 = res.getHist.P999()
	splitPhases(res)
	if cfg.recoverAfter {
		if err := res.recoverFresh(eng); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// recoverFresh loads the cell's durable state into a fresh engine on the
// same stack (cold page cache for the kernel path) and times the load. It is
// part of RunCell so that the recovery's device reads, and the faults
// injected into them, belong to the cell its epilogue reports.
func (res *CellResult) recoverFresh(eng *sim.Engine) error {
	st := res.Stack
	db2 := imdb.New(eng, st.Backend, imdb.Config{Pool: st.Pool()}, nil)
	var err error
	eng.Spawn("recover", func(env *sim.Env) {
		if st.FS != nil {
			st.FS.DropCaches()
		}
		t0 := env.Now()
		res.recoveredEntries, _, err = db2.Recover(env)
		res.recoveryTime = env.Now().Sub(t0)
	})
	eng.Run()
	if err != nil {
		return err
	}
	eng.Shutdown()
	db2.ReleaseBuffers() // the recovery engine never ran Shutdown
	return nil
}

// ReleaseHeavy tears down the cell's stack (Stack.Teardown: a leaked pool
// reference is an error), then drops the references that keep the whole
// simulated device (hundreds of MB of real page bytes) alive: the stack and
// the RPS series. Table runners call it once a cell's metrics are
// extracted, so a multi-cell experiment never holds more than one stack at
// a time.
func (res *CellResult) ReleaseHeavy() error {
	var err error
	if st := res.Stack; st != nil {
		if err = st.Teardown(); err != nil {
			err = fmt.Errorf("exp: %s: %w", res.Label, err)
		}
	}
	res.Stack = nil
	res.series = nil
	return err
}

// splitPhases computes WAL-only vs WAL&Snapshot request rates from the RPS
// series and the snapshot intervals, plus the mean snapshot duration.
func splitPhases(res *CellResult) {
	interval := res.series.Interval()
	var snapOps, walOps int64
	var snapBuckets, walBuckets int
	// Only whole buckets count: the trailing partial bucket would dilute
	// whichever phase it lands in.
	lastBucket := int(int64(res.duration) / int64(interval))
	if lastBucket > res.series.Len() {
		lastBucket = res.series.Len()
	}
	for i := 0; i < lastBucket; i++ {
		if overlapsSnapshot(i, interval, res.Snapshots) {
			snapOps += res.series.Count(i)
			snapBuckets++
		} else {
			walOps += res.series.Count(i)
			walBuckets++
		}
	}
	secs := interval.Seconds()
	if walBuckets > 0 {
		res.walOnlyRPS = float64(walOps) / (float64(walBuckets) * secs)
	}
	if snapBuckets > 0 {
		res.snapRPS = float64(snapOps) / (float64(snapBuckets) * secs)
	}
	if res.duration > 0 {
		res.AvgRPS = float64(walOps+snapOps) / res.duration.Seconds()
	}
	var total sim.Duration
	for _, ev := range res.Snapshots {
		total += ev.Duration
	}
	if n := len(res.Snapshots); n > 0 {
		res.MeanSnapshotTime = total / sim.Duration(n)
	}
}

// overlapsSnapshot reports whether bucket i of a series with the given
// bucket width overlaps any of snaps.
func overlapsSnapshot(i int, interval sim.Duration, snaps []imdb.SnapshotEvent) bool {
	bStart := sim.Time(int64(i) * int64(interval))
	bEnd := bStart.Add(interval)
	for _, ev := range snaps {
		if ev.Start < bEnd && ev.End > bStart {
			return true
		}
	}
	return false
}
