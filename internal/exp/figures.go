package exp

import (
	"fmt"
	"strings"

	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/metrics"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/vtrace"
	"github.com/slimio/slimio/internal/workload"
)

// figure2Scenario is one bar group of Figure 2.
type figure2Scenario struct {
	Name string
	// 2a: snapshot time distribution.
	Duration   sim.Duration
	InMemory   sim.Duration
	KernelPath sim.Duration
	SSDWait    sim.Duration
	// 2b: throughput analysis (bytes/second).
	SnapshotTput float64
	WALTput      float64
	IdealTput    float64
}

// Figure2Result reproduces Figure 2's three scenarios on the baseline.
type Figure2Result struct {
	scenarios []figure2Scenario
}

// RunFigure2 regenerates Figure 2: snapshot duration distribution (2a) and
// throughput analysis (2b) across Snapshot-Only / Snapshot&WAL /
// Snapshot&WAL-under-GC, all on the baseline F2FS stack.
func RunFigure2(sc Scale) (*Figure2Result, error) {
	// One shortened repetition: WAL-Snapshots are off, so the log must fit.
	sc.Reps = 1
	sc.OpsPerRep /= 2
	run := func(name string, cfg CellConfig) (figure2Scenario, error) {
		cfg.traceLabel = "fig2/" + name
		res, err := RunCell(cfg)
		if err != nil {
			return figure2Scenario{}, err
		}
		var ev *imdb.SnapshotEvent
		for i := range res.Snapshots {
			if res.Snapshots[i].Kind == imdb.OnDemandSnapshot {
				ev = &res.Snapshots[i]
			}
		}
		if ev == nil {
			return figure2Scenario{}, fmt.Errorf("exp: scenario %s produced no on-demand snapshot", name)
		}
		s := figure2Scenario{
			Name:       name,
			Duration:   ev.Duration,
			InMemory:   ev.InMemoryTime(),
			KernelPath: ev.KernelPathTime(),
			SSDWait:    ev.DeviceWaitTime(),
		}
		// Disk-visible throughputs: the snapshot writes compressed bytes.
		if ev.Duration > 0 {
			s.SnapshotTput = float64(ev.CompressedBytes) / ev.Duration.Seconds()
		}
		if ev.InMemoryTime() > 0 {
			// Ideal: in-memory work fully overlapped with I/O, so the
			// snapshot is bounded by its own CPU time.
			s.IdealTput = float64(ev.CompressedBytes) / ev.InMemoryTime().Seconds()
		}
		// WAL throughput while the snapshot ran: logged bytes per op times
		// the concurrent request rate (zero in the snapshot-only scenario).
		if !cfg.snapshotOnly {
			recordBytes := float64(8 + 14 + cfg.Workload.ValueSize)
			if cfg.Scale.ValueSize > 0 {
				recordBytes = float64(8 + 14 + cfg.Scale.ValueSize)
			}
			s.WALTput = res.snapRPS * recordBytes
		}
		res.Stack.Eng.Shutdown()
		if err := res.ReleaseHeavy(); err != nil {
			return figure2Scenario{}, err
		}
		return s, nil
	}
	base := CellConfig{
		Kind: BaselineF2FS, Policy: imdb.PeriodicalLog, Scale: sc,
		Workload: workload.RedisBench(0, sc.KeyRange), disableWALSnapshots: true,
	}
	only := base
	only.snapshotOnly = true
	withWAL := base
	withWAL.onDemandMidRun = true
	withWAL.Preload = true // identical dataset across scenarios
	underGC := withWAL
	underGC.gcPressure = true
	scenarios := []struct {
		name string
		cfg  CellConfig
	}{
		{"Snapshot Only", only},
		{"Snapshot & WAL", withWAL},
		{"Snapshot & WAL (under GC)", underGC},
	}
	out := &Figure2Result{scenarios: make([]figure2Scenario, len(scenarios))}
	err := runCells(len(scenarios), sc.Parallel, func(i int) error {
		s, err := run(scenarios[i].name, scenarios[i].cfg)
		if err != nil {
			return err
		}
		out.scenarios[i] = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (f *Figure2Result) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 2a: Snapshot Time Distribution (baseline, F2FS)")
	fmt.Fprintf(&b, "%-26s %12s %12s %14s %12s\n", "Scenario", "Duration", "In-memory", "Kernel path", "SSD wait")
	for _, s := range f.scenarios {
		fmt.Fprintf(&b, "%-26s %12s %7s(%3.0f%%) %9s(%3.0f%%) %7s(%3.0f%%)\n",
			s.Name, s.Duration,
			s.InMemory, pct(s.InMemory, s.Duration),
			s.KernelPath, pct(s.KernelPath, s.Duration),
			s.SSDWait, pct(s.SSDWait, s.Duration))
	}
	fmt.Fprintln(&b, "Figure 2b: Throughput Analysis (MB/s)")
	fmt.Fprintf(&b, "%-26s %14s %14s %14s\n", "Scenario", "Snapshot", "WAL", "Ideal")
	for _, s := range f.scenarios {
		fmt.Fprintf(&b, "%-26s %14.1f %14.1f %14.1f\n", s.Name, s.SnapshotTput/(1<<20), s.WALTput/(1<<20), s.IdealTput/(1<<20))
	}
	return b.String()
}

func pct(part, whole sim.Duration) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// TimelineResult is one runtime-RPS trace (Figures 4 and 5).
type TimelineResult struct {
	Kind   BackendKind
	Series *metrics.Series
	// Snapshots observed during the window (to mark snapshot periods).
	snapshots []imdb.SnapshotEvent
	WAF       float64
	GCRuns    int64
	// Trace is the cell's span tracer (nil when Scale.Trace is unset).
	Trace *vtrace.Tracer
}

// timelineSpec is one system of a runtime-RPS figure. gcPressure injects
// sustained device GC for the whole window, as a conventional device in
// long-run steady state experiences (the paper's Figure 4 regime).
type timelineSpec struct {
	kind       BackendKind
	gcPressure bool
}

// runTimeline runs an open-ended redis-benchmark workload for a fixed
// virtual window, with an On-Demand-Snapshot every quarter window, and
// returns the per-interval request-rate series. The cell's tracer and
// telemetry label is the kind's name.
func runTimeline(s timelineSpec, sc Scale, window sim.Duration) (*TimelineResult, error) {
	eng := sim.NewEngine()
	_, attach, finish := sc.observeCell(s.kind.String())
	defer finish()
	st, err := BuildStack(eng, s.kind, sc)
	if err != nil {
		return nil, err
	}
	if s.gcPressure {
		st.Dev.InjectGCPressure(eng, gcPressureDuty, gcPressurePeriod)
	}
	series := metrics.NewSeries(sc.RPSInterval)
	db := imdb.New(eng, st.Backend, imdb.Config{
		Policy:             imdb.PeriodicalLog,
		WALSnapshotTrigger: sc.WALTriggerBytes,
		Trace:              st.Trace,
		Pool:               st.Pool(),
	}, series)
	db.Start()

	attach(eng, st, db)

	wl := workload.RedisBench(0, sc.KeyRange)
	wl.Ops = 0 // open-ended
	workload.Start(eng, db, wl)
	if odsEvery := window / 4; odsEvery > 0 {
		eng.SpawnDaemon("ods-ticker", func(env *sim.Env) {
			for {
				env.Sleep(odsEvery)
				db.TriggerSnapshot(imdb.OnDemandSnapshot)
			}
		})
	}
	eng.RunUntil(sim.Time(window))
	if _, err := series.Errors(); err != nil {
		eng.Shutdown()
		return nil, fmt.Errorf("exp: %s: %w", s.kind, err)
	}
	out := &TimelineResult{
		Kind:      s.kind,
		Series:    series,
		snapshots: db.Stats().Snapshots,
		WAF:       st.Dev.Stats().WAF(),
		GCRuns:    st.Dev.Stats().GCRuns,
		Trace:     st.Trace,
	}
	// Tear the run down so its parked processes release the simulated
	// device. No Stack.Teardown leak check here: the window cuts an
	// open-ended workload mid-operation, so the engine's open WAL segment is
	// still held.
	eng.Shutdown()
	return out, nil
}

// RunFigure4 regenerates Figure 4: baseline vs SlimIO-without-FDP runtime
// RPS on a conventional SSD under GC pressure — the baseline's page cache
// absorbs GC stalls while SlimIO's direct writes nosedive.
func RunFigure4(sc Scale, window sim.Duration) (baselineT, slimT *TimelineResult, err error) {
	return runTimelinePair(sc, window, timelineSpec{BaselineF2FS, true}, timelineSpec{SlimIOConv, true})
}

// RunFigure5 regenerates Figure 5: baseline vs SlimIO-on-FDP — with
// lifetime separation the runtime RPS stays in a stable band except during
// snapshots.
func RunFigure5(sc Scale, window sim.Duration) (baselineT, slimT *TimelineResult, err error) {
	return runTimelinePair(sc, window, timelineSpec{BaselineF2FS, true}, timelineSpec{SlimIOFDP, false})
}

// runTimelinePair runs a figure's two independent timeline cells under the
// parallel cell scheduler, preserving (baseline, slim) result order.
func runTimelinePair(sc Scale, window sim.Duration, base, slim timelineSpec) (*TimelineResult, *TimelineResult, error) {
	specs := [2]timelineSpec{base, slim}
	var results [2]*TimelineResult
	err := runCells(len(specs), sc.Parallel, func(i int) error {
		tr, err := runTimeline(specs[i], sc, window)
		if err != nil {
			return err
		}
		results[i] = tr
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return results[0], results[1], nil
}

// TimelineSummary condenses a trace for textual reports: mean rate, minimum
// rate outside snapshot windows (nosedives), and coefficient of variation.
type TimelineSummary struct {
	MeanRPS     float64
	MinRPS      float64 // over non-snapshot, post-warmup buckets
	Nosedives   int     // non-snapshot buckets below 10% of the mean
	warmBuckets int
}

// Summarize computes the stability metrics of a trace, ignoring a warmup
// prefix and any bucket overlapping a snapshot.
func (tr *TimelineResult) Summarize(warmup sim.Duration) TimelineSummary {
	s := TimelineSummary{MinRPS: -1}
	interval := tr.Series.Interval()
	first := int(int64(warmup) / int64(interval))
	inSnap := func(i int) bool { return overlapsSnapshot(i, interval, tr.snapshots) }
	var total float64
	for i := first; i < tr.Series.Len(); i++ {
		if inSnap(i) {
			continue
		}
		r := tr.Series.Rate(i)
		total += r
		s.warmBuckets++
		if s.MinRPS < 0 || r < s.MinRPS {
			s.MinRPS = r
		}
	}
	if s.warmBuckets > 0 {
		s.MeanRPS = total / float64(s.warmBuckets)
	}
	for i := first; i < tr.Series.Len(); i++ {
		if !inSnap(i) && tr.Series.Rate(i) < 0.1*s.MeanRPS {
			s.Nosedives++
		}
	}
	if s.MinRPS < 0 {
		s.MinRPS = 0
	}
	return s
}
