package exp

import (
	"sync"
	"testing"

	"github.com/slimio/slimio/internal/fdp"
	"github.com/slimio/slimio/internal/imdb"
)

// ablationTiny is one RunAblation(TinyScale()) shared by the tests that only
// read CellResult fields (table rows are released, so their Stack is gone).
var ablationTiny = sync.OnceValues(func() (*OverallResult, error) {
	return RunAblation(TinyScale())
})

func ablationRow(t *testing.T, kind BackendKind) *CellResult {
	t.Helper()
	res, err := ablationTiny()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.rows {
		if r.Kind == kind {
			return r.Result
		}
	}
	t.Fatalf("ablation table has no %v row", kind)
	return nil
}

// runTinyCell runs the ablation's cell for kind on its own, keeping the
// stack for tests that inspect it.
func runTinyCell(t *testing.T, kind BackendKind) *CellResult {
	t.Helper()
	cfg := redisBenchCell(TinyScale())
	cfg.Kind, cfg.Policy = kind, imdb.PeriodicalLog
	res, err := RunCell(cfg)
	if err != nil {
		t.Fatalf("%v: %v", kind, err)
	}
	return res
}

// TestAblationTinyGolden pins the ablation table: four rows, System labels
// within the column OverallResult.String pads them to.
func TestAblationTinyGolden(t *testing.T) {
	res, err := ablationTiny()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.rows) != 4 {
		t.Fatalf("ablation table has %d rows, want 4", len(res.rows))
	}
	for _, r := range res.rows {
		if len(r.System) > 9 {
			t.Errorf("System label %q wider than the 9-character column", r.System)
		}
	}
	checkGolden(t, "ablation_tiny", res.String())
}

// The FDP-aware-filesystem ablation must actually separate lifetimes: its
// device sees per-file placement IDs, and WAF stays 1.00 like SlimIO's.
func TestAblationFDPAwareFSSeparatesLifetimes(t *testing.T) {
	res := runTinyCell(t, FDPAwareFS)
	f, ok := res.Stack.Dev.FTL().(*fdp.FTL)
	if !ok {
		t.Fatalf("FDPAwareFS stack has FTL %T", res.Stack.Dev.FTL())
	}
	byPID := f.Stats().HostWritesByPID
	if byPID[1] == 0 {
		t.Error("WAL stream (PID 1) unused")
	}
	if byPID[2] == 0 && byPID[3] == 0 {
		t.Error("no snapshot stream writes (PID 2/3)")
	}
	if res.waf != 1.0 {
		t.Errorf("FDP-aware FS WAF = %v, want 1.00", res.waf)
	}
}

// Disabling SQPOLL must put syscalls back on the Snapshot-Path while the
// system still works end to end.
func TestAblationNoSQPollStillWorks(t *testing.T) {
	res := ablationRow(t, SlimIONoSQPoll)
	if len(res.Snapshots) == 0 {
		t.Fatal("no snapshots completed")
	}
	// The snapshot process pays submission syscalls now; billed under the
	// ring/dispatch tags the engine records as BusyRing.
	var ringBusy int64
	for _, ev := range res.Snapshots {
		ringBusy += int64(ev.BusyRing)
	}
	if ringBusy == 0 {
		t.Error("no ring-side CPU billed on the snapshot path")
	}
	if res.waf != 1.0 {
		t.Errorf("WAF = %v, want 1.00 (FDP still on)", res.waf)
	}
}

// SlimIO on a conventional SSD must still be fully functional (Figure 4's
// configuration); only placement is lost.
func TestAblationPassthruOnlyFunctional(t *testing.T) {
	res := runTinyCell(t, SlimIOConv)
	if len(res.Snapshots) == 0 || res.AvgRPS <= 0 {
		t.Fatal("degenerate run")
	}
	if res.Stack.Slim == nil {
		t.Fatal("not a SlimIO stack")
	}
}

// The sync-priority scheduler ablation runs and keeps fsync latency at or
// below the FIFO scheduler's (that is its whole point).
func TestAblationSchedulerPriority(t *testing.T) {
	prio := ablationRow(t, BaselineF2FSPrio)
	none := runTinyCell(t, BaselineF2FS)
	if prio.AvgRPS <= 0 || none.AvgRPS <= 0 {
		t.Fatal("degenerate runs")
	}
	// Under sync priority, snapshot (async writeback) waits longer: its
	// mean snapshot time must not be shorter than under FIFO by more than
	// noise.
	if float64(prio.MeanSnapshotTime) < 0.95*float64(none.MeanSnapshotTime) {
		t.Errorf("sync-priority snapshots (%v) substantially faster than none (%v)",
			prio.MeanSnapshotTime, none.MeanSnapshotTime)
	}
}
