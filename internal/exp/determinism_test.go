package exp

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/workload"
)

// cellDigest captures every scalar metric of a cell result exactly (float
// bit patterns, not formatted values), so any reordering of simulation
// events shows up as a digest mismatch.
func cellDigest(res *CellResult) string {
	var b strings.Builder
	f := func(name string, v float64) { fmt.Fprintf(&b, "%s=%016x ", name, math.Float64bits(v)) }
	d := func(name string, v int64) { fmt.Fprintf(&b, "%s=%d ", name, v) }
	f("avgRPS", res.AvgRPS)
	f("walRPS", res.walOnlyRPS)
	f("snapRPS", res.snapRPS)
	f("waf", res.waf)
	d("setP999", int64(res.SetP999))
	d("getP999", int64(res.GetP999))
	d("walMem", res.walOnlyMem)
	d("snapMem", res.snapMem)
	d("meanSnap", int64(res.MeanSnapshotTime))
	d("dur", int64(res.duration))
	d("snapshots", int64(len(res.Snapshots)))
	for i, ev := range res.Snapshots {
		fmt.Fprintf(&b, "snap%d=%d+%d ", i, int64(ev.Start), int64(ev.Duration))
	}
	return b.String()
}

// TestDeterminismSerialAndParallel is the bit-reproducibility regression
// gate for the perf work: a Table 3 cell pair (baseline-f2fs and slimio-fdp,
// Periodical-Log, per-rep On-Demand-Snapshots) must produce exactly the same
// metric bit patterns when run twice serially and once under the parallel
// cell scheduler. Each cell owns its engine and RNGs, so concurrency must
// not be observable in any result.
func TestDeterminismSerialAndParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism regression is not a -short test")
	}
	sc := SmallScale()
	sc.Reps = 1
	sc.OpsPerRep = 20_000

	kinds := []BackendKind{BaselineF2FS, SlimIOFDP}
	runPair := func(parallel int) []string {
		digests := make([]string, len(kinds))
		err := runCells(len(kinds), parallel, func(i int) error {
			res, err := RunCell(CellConfig{
				Kind: kinds[i], Policy: imdb.PeriodicalLog, Scale: sc,
				Workload:       workload.RedisBench(0, sc.KeyRange),
				onDemandPerRep: true,
			})
			if err != nil {
				return err
			}
			res.Stack.Eng.Shutdown()
			res.ReleaseHeavy()
			digests[i] = cellDigest(res)
			return nil
		})
		if err != nil {
			t.Fatalf("run pair (parallel=%d): %v", parallel, err)
		}
		return digests
	}

	serial1 := runPair(1)
	serial2 := runPair(1)
	concurrent := runPair(2)
	for i, kind := range kinds {
		if serial1[i] != serial2[i] {
			t.Errorf("%s: serial run not reproducible:\n  run1: %s\n  run2: %s", kind, serial1[i], serial2[i])
		}
		if serial1[i] != concurrent[i] {
			t.Errorf("%s: parallel run diverges from serial:\n  serial:   %s\n  parallel: %s", kind, serial1[i], concurrent[i])
		}
	}
}
