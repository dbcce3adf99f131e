package exp

import (
	"fmt"
	"strings"

	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/vtrace"
	"github.com/slimio/slimio/internal/workload"
)

func mb(b int64) float64 { return float64(b) / (1 << 20) }

// Table1Result reproduces Table 1: query throughput and peak memory during
// WAL-only vs Snapshot&WAL phases on EXT4 and F2FS.
type Table1Result struct {
	rows []table1Row
}

// table1Row is one (filesystem, phase) measurement.
type table1Row struct {
	FS       string
	Phase    string // "WAL Only" | "Snapshot&WAL"
	RPS      float64
	MemBytes int64
}

// RunTable1 regenerates Table 1 (baseline only, redis-benchmark workload,
// Periodical-Log, WAL-Snapshots enabled, no On-Demand-Snapshot — §2.2).
func RunTable1(sc Scale) (*Table1Result, error) {
	kinds := []BackendKind{BaselineEXT4, BaselineF2FS}
	rows := make([][2]table1Row, len(kinds))
	err := runCells(len(kinds), sc.Parallel, func(i int) error {
		res, err := RunCell(CellConfig{
			Kind:     kinds[i],
			Policy:   imdb.PeriodicalLog,
			Scale:    sc,
			Workload: workload.RedisBench(0, sc.KeyRange),
		})
		if err != nil {
			return err
		}
		fs := res.Stack.FS.Profile().Name
		res.Stack.Eng.Shutdown()
		if err := res.ReleaseHeavy(); err != nil {
			return err
		}
		rows[i] = [2]table1Row{
			{FS: fs, Phase: "WAL Only", RPS: res.walOnlyRPS, MemBytes: res.walOnlyMem},
			{FS: fs, Phase: "Snapshot&WAL", RPS: res.snapRPS, MemBytes: res.snapMem},
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &Table1Result{}
	for _, pair := range rows {
		out.rows = append(out.rows, pair[0], pair[1])
	}
	return out, nil
}

func (t *Table1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: Performance Degradation and Increased Memory Usage During Snapshot Generation\n")
	fmt.Fprintf(&b, "%-6s %-14s %14s %18s\n", "FS", "Phase", "Requests/s", "Peak Memory (MB)")
	for _, r := range t.rows {
		fmt.Fprintf(&b, "%-6s %-14s %14.2f %18.1f\n", strings.ToUpper(r.FS), r.Phase, r.RPS, mb(r.MemBytes))
	}
	return b.String()
}

// Table2Result reproduces Table 2: the filesystem write path's share of the
// snapshot process's time, Snapshot-Only vs Snapshot&WAL (F2FS).
type Table2Result struct {
	snapshotOnlyPct float64
	snapshotWALPct  float64
}

// RunTable2 regenerates Table 2. WAL-Snapshots are disabled for these
// scenarios (§3.1 isolates a single On-Demand-Snapshot), so the run is
// bounded to one repetition that fits the unbounded log on the device.
func RunTable2(sc Scale) (*Table2Result, error) {
	sc.Reps = 1
	sc.OpsPerRep /= 2
	fsShare := func(cfg CellConfig) (float64, error) {
		res, err := RunCell(cfg)
		if err != nil {
			return 0, err
		}
		var fsBusy, dur sim.Duration
		for _, ev := range res.Snapshots {
			if ev.Kind == imdb.OnDemandSnapshot {
				// The filesystem write path includes the user→kernel copy
				// (generic_perform_write runs inside the fs), the per-op
				// fs code, and the syscall shell around it.
				fsBusy += ev.BusyFS + ev.BusySyscall + ev.BusyCopy
				dur += ev.Duration
			}
		}
		if dur == 0 {
			return 0, fmt.Errorf("exp: no on-demand snapshot ran")
		}
		return 100 * float64(fsBusy) / float64(dur), nil
	}
	cfgs := []CellConfig{
		{
			Kind: BaselineF2FS, Policy: imdb.PeriodicalLog, Scale: sc,
			Workload:     workload.RedisBench(0, sc.KeyRange),
			snapshotOnly: true, disableWALSnapshots: true,
			traceLabel: "table2/snapshot-only",
		},
		{
			Kind: BaselineF2FS, Policy: imdb.PeriodicalLog, Scale: sc,
			Workload:       workload.RedisBench(0, sc.KeyRange),
			onDemandMidRun: true, disableWALSnapshots: true,
			Preload:    true, // identical dataset to the Snapshot-Only scenario
			traceLabel: "table2/snapshot+wal",
		},
	}
	shares := make([]float64, len(cfgs))
	err := runCells(len(cfgs), sc.Parallel, func(i int) error {
		pctv, err := fsShare(cfgs[i])
		if err != nil {
			return err
		}
		shares[i] = pctv
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Table2Result{snapshotOnlyPct: shares[0], snapshotWALPct: shares[1]}, nil
}

func (t *Table2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: CPU Usage of File System Write Path in Snapshots (F2FS)\n")
	fmt.Fprintf(&b, "%-14s %28s\n", "Scenario", "FS share of snapshot process")
	fmt.Fprintf(&b, "%-14s %27.2f%%\n", "Snapshot Only", t.snapshotOnlyPct)
	fmt.Fprintf(&b, "%-14s %27.2f%%\n", "Snapshot&WAL", t.snapshotWALPct)
	return b.String()
}

// overallRow is one system row of an OverallResult.
type overallRow struct {
	Policy  imdb.LogPolicy
	System  string
	Kind    BackendKind
	Result  *CellResult
	GetP999 sim.Duration
	// Attrib is the per-layer latency attribution for the cell, non-nil
	// only when the run traced (Scale.Trace set).
	Attrib *vtrace.Attribution
}

// OverallResult holds the full Table 3, Table 4 or ablation table.
type OverallResult struct {
	title  string
	hasWAF bool
	hasGet bool
	rows   []overallRow
}

// overallSpec is one row of an OverallResult: the stack, the logging policy
// and the row's System label — at most 9 characters, the width
// OverallResult.String pads that column to.
type overallSpec struct {
	policy imdb.LogPolicy
	kind   BackendKind
	system string
}

// paperRows is the row set of Tables 3 and 4: both logging policies,
// baseline (F2FS on a conventional SSD) vs SlimIO (passthru on FDP).
var paperRows = []overallSpec{
	{imdb.PeriodicalLog, BaselineF2FS, "Baseline"},
	{imdb.PeriodicalLog, SlimIOFDP, "SlimIO"},
	{imdb.AlwaysLog, BaselineF2FS, "Baseline"},
	{imdb.AlwaysLog, SlimIOFDP, "SlimIO"},
}

// ablationRows takes SlimIO's mechanisms one at a time, which the paper
// argues only verbally: the rings on a conventional SSD (syscall relief
// without GC relief — Figure 4's configuration as a table row), the kernel
// path on an FDP SSD with an FDP-aware filesystem (GC relief without syscall
// relief), SlimIO with syscall-mode submission on the Snapshot-Path (the
// SQPOLL share of the win), and the baseline under a sync-priority I/O
// scheduler instead of 'none' (the §4 argument that such schedulers
// deprioritize snapshot writes).
var ablationRows = []overallSpec{
	{imdb.PeriodicalLog, SlimIOConv, "Passthru"},
	{imdb.PeriodicalLog, FDPAwareFS, "FDP-only"},
	{imdb.PeriodicalLog, SlimIONoSQPoll, "NoSQPoll"},
	{imdb.PeriodicalLog, BaselineF2FSPrio, "SchedPrio"},
}

// runOverall fills out with one row per spec: each cell is tmpl with the
// spec's kind and policy, run under the parallel cell scheduler and released
// once its metrics are extracted.
func runOverall(out *OverallResult, tmpl CellConfig, specs []overallSpec) (*OverallResult, error) {
	out.rows = make([]overallRow, len(specs))
	err := runCells(len(specs), tmpl.Scale.Parallel, func(i int) error {
		s := specs[i]
		cfg := tmpl
		cfg.Kind, cfg.Policy = s.kind, s.policy
		res, err := RunCell(cfg)
		if err != nil {
			return err
		}
		res.Stack.Eng.Shutdown()
		if err := res.ReleaseHeavy(); err != nil {
			return err
		}
		row := overallRow{Policy: s.policy, System: s.system, Kind: s.kind, Result: res, GetP999: res.GetP999}
		if res.trace != nil {
			row.Attrib = vtrace.Compute(res.trace)
		}
		out.rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// redisBenchCell is the cell template of Table 3 and the ablation: the
// redis-benchmark workload with per-repetition On-Demand-Snapshots.
func redisBenchCell(sc Scale) CellConfig {
	return CellConfig{Scale: sc, Workload: workload.RedisBench(0, sc.KeyRange), onDemandPerRep: true}
}

// RunTable3 regenerates Table 3: the overall redis-benchmark evaluation —
// both logging policies, baseline vs SlimIO, with per-repetition
// On-Demand-Snapshots.
func RunTable3(sc Scale) (*OverallResult, error) {
	out := &OverallResult{title: "Table 3: Overall Evaluation with Redis Benchmark Workload", hasWAF: true}
	return runOverall(out, redisBenchCell(sc), paperRows)
}

// RunTable4 regenerates Table 4: the YCSB-A evaluation — zipfian 50/50
// GET:SET, preloaded records, WAL-Snapshots only (no On-Demand, no GC
// pressure).
func RunTable4(sc Scale) (*OverallResult, error) {
	out := &OverallResult{title: "Table 4: Overall Evaluation with YCSB-A Workload", hasGet: true}
	if sc.ValueSize == 0 {
		sc.ValueSize = 2048
	}
	return runOverall(out, CellConfig{Scale: sc, Workload: workload.YCSBA(0, sc.KeyRange), Preload: true}, paperRows)
}

// RunAblation runs the ablation table (beyond the paper): Table 3's
// Periodical-Log cell on each of the four ablationRows stacks.
func RunAblation(sc Scale) (*OverallResult, error) {
	out := &OverallResult{title: "Ablation: SlimIO's mechanisms one at a time (redis-benchmark, Periodical-Log)", hasWAF: true}
	return runOverall(out, redisBenchCell(sc), ablationRows)
}

func (t *OverallResult) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, t.title)
	hdr := fmt.Sprintf("%-11s %-9s %12s %10s %12s %10s %12s %12s %14s",
		"Policy", "System", "WALonly RPS", "Mem(MB)", "Snap&WAL", "Mem(MB)", "Avg RPS", "SnapTime", "SET p999")
	if t.hasGet {
		hdr += fmt.Sprintf(" %14s", "GET p999")
	}
	if t.hasWAF {
		hdr += fmt.Sprintf(" %8s", "WAF")
	}
	fmt.Fprintln(&b, hdr)
	for _, r := range t.rows {
		res := r.Result
		line := fmt.Sprintf("%-11s %-9s %12.2f %10.1f %12.2f %10.1f %12.2f %12s %14s",
			r.Policy, r.System, res.walOnlyRPS, mb(res.walOnlyMem), res.snapRPS, mb(res.snapMem),
			res.AvgRPS, res.MeanSnapshotTime, res.SetP999)
		if t.hasGet {
			line += fmt.Sprintf(" %14s", r.GetP999)
		}
		if t.hasWAF {
			line += fmt.Sprintf(" %8.2f", res.waf)
		}
		fmt.Fprintln(&b, line)
	}
	for _, r := range t.rows {
		if r.Attrib == nil {
			continue
		}
		fmt.Fprintf(&b, "\nLatency attribution — %s (%s/%s):\n", r.Result.Label, r.Policy, r.System)
		b.WriteString(r.Attrib.Format())
	}
	return b.String()
}

// Table5Result reproduces Table 5: recovery time and throughput from a
// snapshot, baseline vs SlimIO.
type Table5Result struct {
	rows []table5Row
}

// table5Row is one system's recovery measurement.
type table5Row struct {
	System        string
	SnapshotBytes int64
	RecoveryTime  sim.Duration
	ThroughputBps float64
	Entries       int64
}

// RunTable5 regenerates Table 5: write a dataset with an On-Demand-Snapshot
// on each backend, then recover into a fresh engine and time the load
// (cold page cache for the baseline).
func RunTable5(sc Scale) (*Table5Result, error) {
	kinds := []BackendKind{BaselineF2FS, SlimIOFDP}
	rows := make([]table5Row, len(kinds))
	jobErr := runCells(len(kinds), sc.Parallel, func(i int) error {
		kind := kinds[i]
		cfg := redisBenchCell(sc)
		cfg.Kind, cfg.Policy, cfg.recoverAfter = kind, imdb.PeriodicalLog, true
		cell, err := RunCell(cfg)
		if err != nil {
			return err
		}
		row := table5Row{RecoveryTime: cell.recoveryTime, Entries: cell.recoveredEntries}
		// Recovered image size: the last snapshot's compressed bytes plus
		// the replayed WAL.
		if last := len(cell.Snapshots) - 1; last >= 0 {
			row.SnapshotBytes = cell.Snapshots[last].CompressedBytes
		}
		if row.RecoveryTime > 0 {
			row.ThroughputBps = float64(row.SnapshotBytes) / row.RecoveryTime.Seconds()
		}
		row.System = "Baseline"
		if kind == SlimIOFDP {
			row.System = "SlimIO"
		}
		if err := cell.ReleaseHeavy(); err != nil {
			return err
		}
		rows[i] = row
		return nil
	})
	if jobErr != nil {
		return nil, jobErr
	}
	return &Table5Result{rows: rows}, nil
}

func (t *Table5Result) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table 5: Recovery Evaluation on Snapshot")
	fmt.Fprintf(&b, "%-9s %16s %20s %24s\n", "System", "Image (MB)", "Recovery Time", "Recovery Tput (MB/s)")
	for _, r := range t.rows {
		fmt.Fprintf(&b, "%-9s %16.1f %20s %24.2f\n", r.System, mb(r.SnapshotBytes), r.RecoveryTime, r.ThroughputBps/(1<<20))
	}
	return b.String()
}
