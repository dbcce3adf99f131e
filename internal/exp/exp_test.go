package exp

import (
	"strings"
	"testing"

	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/workload"
)

func TestBuildStackAllKinds(t *testing.T) {
	for _, kind := range []BackendKind{
		BaselineEXT4, BaselineF2FS, BaselineF2FSPrio,
		SlimIOFDP, SlimIOConv, SlimIONoSQPoll, FDPAwareFS,
	} {
		eng := sim.NewEngine()
		st, err := BuildStack(eng, kind, TinyScale())
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if st.Dev == nil || st.Backend == nil {
			t.Fatalf("%v: incomplete stack", kind)
		}
		isBaseline := kind == BaselineEXT4 || kind == BaselineF2FS || kind == BaselineF2FSPrio || kind == FDPAwareFS
		if isBaseline && st.FS == nil {
			t.Fatalf("%v: missing filesystem", kind)
		}
		if !isBaseline && st.Slim == nil {
			t.Fatalf("%v: missing slimio backend", kind)
		}
		if kind.String() == "unknown" {
			t.Fatalf("%v: missing name", kind)
		}
	}
	if _, err := BuildStack(sim.NewEngine(), BackendKind(99), TinyScale()); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := BuildStackN(sim.NewEngine(), BaselineF2FS, 2, TinyScale()); err == nil {
		t.Fatal("multi-tenant kernel-path stack accepted")
	}
	if _, err := BuildStackN(sim.NewEngine(), SlimIOFDP, 0, TinyScale()); err == nil {
		t.Fatal("zero-tenant stack accepted")
	}
}

func TestFilePIDMapping(t *testing.T) {
	cases := map[string]uint32{
		"appendonly.wal.0":    1,
		"dump-wal.rdb":        2,
		"dump-wal-3.tmp":      2,
		"dump-ondemand-1.tmp": 3,
		"dump-ondemand.rdb":   3,
		"somethingelse":       0,
	}
	for name, want := range cases {
		if got := filePID(name); got != want {
			t.Errorf("filePID(%q) = %d, want %d", name, got, want)
		}
	}
}

func TestRunCellBasicInvariants(t *testing.T) {
	sc := TinyScale()
	res, err := RunCell(CellConfig{
		Kind: SlimIOFDP, Policy: imdb.PeriodicalLog, Scale: sc,
		Workload: workload.RedisBench(0, sc.KeyRange), onDemandPerRep: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgRPS <= 0 || res.duration <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if len(res.Snapshots) == 0 {
		t.Fatal("no snapshots")
	}
	if res.snapMem < res.walOnlyMem {
		t.Fatal("peak memory below base")
	}
	if res.waf != 1.0 {
		t.Fatalf("SlimIO-on-FDP WAF = %v, want 1.00", res.waf)
	}
	if res.SetP999 <= 0 {
		t.Fatal("no latency data")
	}
}

// TestRunCellReportsDroppedSamples: a cell whose RPS series drops samples
// (here every op past the series' bucket cap) fails instead of reporting
// rates over a truncated series.
func TestRunCellReportsDroppedSamples(t *testing.T) {
	sc := TinyScale()
	sc.RPSInterval = sim.Nanosecond
	_, err := RunCell(CellConfig{
		Kind: SlimIOFDP, Policy: imdb.PeriodicalLog, Scale: sc,
		Workload: workload.RedisBench(0, sc.KeyRange),
	})
	if err == nil || !strings.Contains(err.Error(), "samples dropped") {
		t.Fatalf("RunCell with a 1 ns RPS interval: err = %v, want the dropped samples named", err)
	}
}

func TestRunCellDeterminism(t *testing.T) {
	sc := TinyScale()
	run := func() (*CellResult, error) {
		return RunCell(CellConfig{
			Kind: BaselineF2FS, Policy: imdb.PeriodicalLog, Scale: sc,
			Workload: workload.RedisBench(0, sc.KeyRange), onDemandPerRep: true,
		})
	}
	a, err := run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if a.duration != b.duration || a.AvgRPS != b.AvgRPS || a.SetP999 != b.SetP999 || a.waf != b.waf {
		t.Fatalf("nondeterministic cells:\n%+v\n%+v", a, b)
	}
}

func TestTable1ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests need small scale; skipped in -short")
	}
	res, err := RunTable1(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.rows) != 4 {
		t.Fatalf("rows = %d", len(res.rows))
	}
	byKey := map[string]table1Row{}
	for _, r := range res.rows {
		byKey[r.FS+"/"+r.Phase] = r
	}
	for _, fs := range []string{"ext4", "f2fs"} {
		walOnly, snap := byKey[fs+"/WAL Only"], byKey[fs+"/Snapshot&WAL"]
		// Paper Table 1: RPS drops ~28-31% during snapshots and memory
		// roughly doubles. At tiny scale we only assert direction.
		if snap.RPS >= walOnly.RPS {
			t.Errorf("%s: snapshot phase RPS %v not below WAL-only %v", fs, snap.RPS, walOnly.RPS)
		}
		if snap.MemBytes <= walOnly.MemBytes {
			t.Errorf("%s: snapshot memory %v not above base %v", fs, snap.MemBytes, walOnly.MemBytes)
		}
	}
	if s := res.String(); !strings.Contains(s, "Table 1") {
		t.Error("missing render")
	}
}

func TestTable2ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests need small scale; skipped in -short")
	}
	res, err := RunTable2(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 11.53% -> 13.61%. Assert a meaningful share that grows under
	// concurrent WAL traffic.
	if res.snapshotOnlyPct <= 2 || res.snapshotOnlyPct >= 40 {
		t.Errorf("snapshot-only fs share = %.2f%%, want single-to-low-double digits", res.snapshotOnlyPct)
	}
	if res.snapshotWALPct < res.snapshotOnlyPct {
		t.Errorf("fs share did not grow under WAL: %.2f%% -> %.2f%%", res.snapshotOnlyPct, res.snapshotWALPct)
	}
	if s := res.String(); !strings.Contains(s, "Table 2") {
		t.Error("missing render")
	}
}

func TestFigure2ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests need small scale; skipped in -short")
	}
	res, err := RunFigure2(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.scenarios) != 3 {
		t.Fatalf("scenarios = %d", len(res.scenarios))
	}
	only, withWAL, underGC := res.scenarios[0], res.scenarios[1], res.scenarios[2]
	// 2a: the kernel path consumes a noticeable share even alone.
	if share := pct(only.KernelPath, only.Duration); share < 5 || share > 35 {
		t.Errorf("snapshot-only kernel share = %.1f%%, want ~15%%", share)
	}
	// Snapshot duration must not improve under WAL contention (the paper
	// shows modest growth; at this scale the effect is within noise) and
	// must clearly grow under GC pressure.
	if float64(withWAL.Duration) < 0.99*float64(only.Duration) {
		t.Errorf("snapshot under WAL (%v) faster than alone (%v)", withWAL.Duration, only.Duration)
	}
	if underGC.Duration <= withWAL.Duration {
		t.Errorf("snapshot under GC (%v) not slower than under WAL (%v)", underGC.Duration, withWAL.Duration)
	}
	if underGC.SSDWait <= withWAL.SSDWait {
		t.Errorf("GC did not increase SSD wait: %v vs %v", underGC.SSDWait, withWAL.SSDWait)
	}
	// 2b: measured throughput below ideal; WAL outpaces snapshot when
	// concurrent (paper: snapshot 30-45% below WAL).
	if only.SnapshotTput >= only.IdealTput {
		t.Error("snapshot throughput above ideal")
	}
	if withWAL.SnapshotTput >= withWAL.WALTput {
		t.Errorf("snapshot tput %.0f not below WAL tput %.0f", withWAL.SnapshotTput, withWAL.WALTput)
	}
	if s := res.String(); !strings.Contains(s, "Figure 2a") {
		t.Error("missing render")
	}
}

func TestTable3ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests need small scale; skipped in -short")
	}
	res, err := RunTable3(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.rows) != 4 {
		t.Fatalf("rows = %d", len(res.rows))
	}
	get := func(pol imdb.LogPolicy, sys string) *CellResult {
		for _, r := range res.rows {
			if r.Policy == pol && r.System == sys {
				return r.Result
			}
		}
		t.Fatalf("missing row %v/%s", pol, sys)
		return nil
	}
	for _, pol := range []imdb.LogPolicy{imdb.PeriodicalLog, imdb.AlwaysLog} {
		base, slim := get(pol, "Baseline"), get(pol, "SlimIO")
		if slim.walOnlyRPS <= base.walOnlyRPS {
			t.Errorf("%v: SlimIO WAL-only RPS %v not above baseline %v", pol, slim.walOnlyRPS, base.walOnlyRPS)
		}
		if slim.AvgRPS <= base.AvgRPS {
			t.Errorf("%v: SlimIO avg RPS not above baseline", pol)
		}
		if slim.MeanSnapshotTime >= base.MeanSnapshotTime {
			t.Errorf("%v: SlimIO snapshot %v not faster than baseline %v", pol, slim.MeanSnapshotTime, base.MeanSnapshotTime)
		}
		if slim.waf != 1.0 {
			t.Errorf("%v: SlimIO WAF %v != 1.00", pol, slim.waf)
		}
		if base.waf < 1.0 {
			t.Errorf("%v: baseline WAF below 1", pol)
		}
	}
	if s := res.String(); !strings.Contains(s, "Table 3") {
		t.Error("missing render")
	}
}

func TestTable4ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests need small scale; skipped in -short")
	}
	sc := TinyScale()
	res, err := RunTable4(sc)
	if err != nil {
		t.Fatal(err)
	}
	get := func(pol imdb.LogPolicy, sys string) overallRow {
		for _, r := range res.rows {
			if r.Policy == pol && r.System == sys {
				return r
			}
		}
		t.Fatalf("missing row")
		return overallRow{}
	}
	for _, pol := range []imdb.LogPolicy{imdb.PeriodicalLog, imdb.AlwaysLog} {
		base, slim := get(pol, "Baseline"), get(pol, "SlimIO")
		if slim.Result.AvgRPS <= base.Result.AvgRPS {
			t.Errorf("%v: SlimIO avg RPS not above baseline", pol)
		}
		if base.GetP999 <= 0 || slim.GetP999 <= 0 {
			t.Errorf("%v: missing GET tail latency", pol)
		}
	}
	if s := res.String(); !strings.Contains(s, "GET p999") {
		t.Error("missing GET column")
	}
}

func TestTable5ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests need small scale; skipped in -short")
	}
	res, err := RunTable5(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.rows) != 2 {
		t.Fatalf("rows = %d", len(res.rows))
	}
	base, slim := res.rows[0], res.rows[1]
	if base.Entries == 0 || slim.Entries == 0 {
		t.Fatal("recovery loaded nothing")
	}
	// Paper Table 5: SlimIO recovers ~20% faster with higher throughput.
	if slim.RecoveryTime >= base.RecoveryTime {
		t.Errorf("SlimIO recovery %v not faster than baseline %v", slim.RecoveryTime, base.RecoveryTime)
	}
	if slim.ThroughputBps <= base.ThroughputBps {
		t.Errorf("SlimIO recovery throughput not above baseline")
	}
	if s := res.String(); !strings.Contains(s, "Table 5") {
		t.Error("missing render")
	}
}

func TestFigure4And5ShapesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests need small scale; skipped in -short")
	}
	sc := SmallScale()
	window := 2500 * sim.Millisecond
	warmup := 500 * sim.Millisecond

	base4, slim4, err := RunFigure4(sc, window)
	if err != nil {
		t.Fatal(err)
	}
	sBase4, sSlim4 := base4.Summarize(warmup), slim4.Summarize(warmup)
	// Figure 4: SlimIO-without-FDP dips harder than the baseline under GC
	// (relative floor below the mean).
	if sSlim4.MinRPS/sSlim4.MeanRPS >= sBase4.MinRPS/sBase4.MeanRPS {
		t.Errorf("fig4: slimio-conv floor %.2f of mean not deeper than baseline %.2f",
			sSlim4.MinRPS/sSlim4.MeanRPS, sBase4.MinRPS/sBase4.MeanRPS)
	}
	if slim4.GCRuns == 0 {
		t.Error("fig4: no GC on slimio-conv")
	}

	_, slim5, err := RunFigure5(sc, window)
	if err != nil {
		t.Fatal(err)
	}
	sSlim5 := slim5.Summarize(warmup)
	// Figure 5: with FDP the floor recovers into a stable band.
	if sSlim5.MinRPS/sSlim5.MeanRPS <= sSlim4.MinRPS/sSlim4.MeanRPS {
		t.Errorf("fig5: FDP floor %.2f of mean not above noFDP floor %.2f",
			sSlim5.MinRPS/sSlim5.MeanRPS, sSlim4.MinRPS/sSlim4.MeanRPS)
	}
	if slim5.WAF != 1.0 {
		t.Errorf("fig5: SlimIO-FDP WAF = %v", slim5.WAF)
	}
}
