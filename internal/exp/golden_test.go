package exp

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/slimio/slimio/internal/fault"
	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/metrics"
	"github.com/slimio/slimio/internal/telemetry"
	"github.com/slimio/slimio/internal/vtrace"
	"github.com/slimio/slimio/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run instead of comparing")

// checkGolden pins a rendered tiny-scale report to testdata/<name>.golden.
// The run-to-run determinism tests only prove a build agrees with itself; a
// refactor that shifts every event the same way in every run would pass
// them, and fails here. Regenerate (only for an intended behaviour change)
// with `go test ./internal/exp -run 'Golden|Identical|IsolationDeterminism|InspectReport' -update`.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the committed golden:\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// TestTable5TinyGolden pins the recovery table; Table 3 and the isolation
// report are pinned by the tests that already compute them at tiny scale.
func TestTable5TinyGolden(t *testing.T) {
	res, err := RunTable5(TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table5_tiny", res.String())
}

// TestTelemetryTinyGolden pins the telemetry artifacts of a traced,
// telemetered tiny Table 3: per cell the schema, row count and first/last
// rows (readable when something moves), and the sha256 of every exported
// file — the JSON dump, the OpenMetrics snapshot and each per-cell CSV (the
// dump is ~100 KB, too big to commit verbatim).
func TestTelemetryTinyGolden(t *testing.T) {
	sc := TinyScale()
	sc.Telemetry = telemetry.NewRegistry(0)
	sc.Trace = vtrace.NewRegistry()
	if _, err := RunTable3(sc); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	sum := func(name string, data []byte) {
		fmt.Fprintf(&got, "sha256 %-32s %x\n", name, sha256.Sum256(data))
	}
	var buf bytes.Buffer
	if err := sc.Telemetry.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	dump, err := telemetry.ParseDump(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range dump.Cells {
		fmt.Fprintf(&got, "cell %s: %d rows x %d gauges\n  names %s\n", c.Label, len(c.Samples), len(c.Names), strings.Join(c.Names, ","))
		if n := len(c.Samples); n > 0 {
			fmt.Fprintf(&got, "  first t=%d %v\n  last  t=%d %v\n", c.Samples[0].T, c.Samples[0].V, c.Samples[n-1].T, c.Samples[n-1].V)
		}
	}
	sum("telemetry.json", buf.Bytes())
	buf.Reset()
	if err := sc.Telemetry.ExportOpenMetrics(&buf, nil); err != nil {
		t.Fatal(err)
	}
	sum("metrics.prom", buf.Bytes())
	live := sc.Telemetry.Snapshot()
	for i := range live.Cells {
		buf.Reset()
		if err := live.Cells[i].CSV(&buf); err != nil {
			t.Fatal(err)
		}
		sum(telemetry.SanitizeLabel(live.Cells[i].Label)+".csv", buf.Bytes())
	}
	checkGolden(t, "telemetry_tiny", got.String())
}

// faultedTiny is the fault schedule the counter golden and
// TestCountersEqualStats share: rare enough that the tiny device keeps
// healthy blocks, dense enough that every cell retires some.
func faultedTiny(ctr *metrics.Counter) Scale {
	sc := TinyScale()
	sc.FaultSeed, sc.ReadErrRate, sc.ProgramErrRate = 3, 0.002, 0.001
	sc.Metrics = ctr
	return sc
}

// counterBlock renders ctr the way slimio-bench prints it.
func counterBlock(ctr *metrics.Counter) string {
	var b strings.Builder
	for _, kv := range ctr.Sorted() {
		fmt.Fprintf(&b, "%-24s %d\n", kv.Key, kv.Value)
	}
	return b.String()
}

// TestFaultCountersTinyGolden pins the "Fault & error-handling counters"
// block of a fault-injected tiny Table 3.
func TestFaultCountersTinyGolden(t *testing.T) {
	ctr := &metrics.Counter{}
	if _, err := RunTable3(faultedTiny(ctr)); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fault_counters_tiny", counterBlock(ctr))
}

// TestCountersEqualStats: the counters a run prints are the layers' own
// Stats under other names. For a finished fault-injected cell every counter
// equals the corresponding field (a zero field prints nothing), and a cell
// that dies of its faults still reports them.
func TestCountersEqualStats(t *testing.T) {
	ctr := &metrics.Counter{}
	sc := faultedTiny(ctr)
	res, err := RunCell(CellConfig{
		Kind: SlimIOFDP, Policy: imdb.PeriodicalLog, Scale: sc,
		Workload: workload.RedisBench(0, sc.KeyRange), onDemandPerRep: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stack
	fs, ds, io := st.Fault.Stats(), st.Dev.Stats(), st.Dev.IOStats()
	want := map[string]int64{
		fault.CounterReadErr:     fs.ReadErrors,
		fault.CounterProgramErr:  fs.ProgramErrors,
		fault.CounterEraseErr:    fs.EraseErrors,
		fault.CounterTornProgram: fs.TornPrograms,
		"fdp.program_fail":       ds.ProgramFailures,
		"fdp.block_retired":      ds.RetiredBlocks,
		"fdp.gc_read_retry":      ds.GCReadRetries,
		"fdp.lpa_lost":           ds.LostPages,
		"fdp.erase_fail":         ds.EraseFailures,
		"fdp.torn_write":         ds.TornWrites,
		"ssd.read_retry":         io.ReadRetries,
		"ssd.write_retry":        io.WriteRetries,
		"ssd.read_fail":          io.ReadFailures,
		"ssd.write_fail":         io.WriteFailures,
	}
	if fs.ProgramErrors == 0 {
		t.Fatal("the schedule injected no program error; the comparison is vacuous")
	}
	printed := 0
	for name, n := range want {
		if got := ctr.Get(name); got != n {
			t.Errorf("counter %s = %d, the layer's Stats say %d", name, got, n)
		}
		if n != 0 {
			printed++
		}
	}
	if got := len(ctr.Sorted()); got != printed {
		t.Errorf("%d counters printed, want the %d non-zero Stats fields:\n%s", got, printed, counterBlock(ctr))
	}
	if err := res.ReleaseHeavy(); err != nil {
		t.Fatal(err)
	}

	// Error exit: every program fails, the cell returns an error, and the
	// counters still say why.
	ctr = &metrics.Counter{}
	sc = TinyScale()
	sc.FaultSeed, sc.ProgramErrRate, sc.Metrics = 1, 1.0, ctr
	if _, err := RunCell(CellConfig{
		Kind: SlimIOFDP, Policy: imdb.AlwaysLog, Scale: sc,
		Workload: workload.RedisBench(0, sc.KeyRange), Preload: true,
	}); err == nil {
		t.Fatal("every program failing must surface as a cell error")
	}
	for _, name := range []string{fault.CounterProgramErr, "fdp.program_fail", "fdp.block_retired"} {
		if ctr.Get(name) == 0 {
			t.Errorf("failed cell reported no %s:\n%s", name, counterBlock(ctr))
		}
	}
}
