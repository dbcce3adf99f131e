package telemetry

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/slimio/slimio/internal/metrics"
	"github.com/slimio/slimio/internal/sim"
)

func TestRegistryCellsSortedAndCached(t *testing.T) {
	reg := NewRegistry(0)
	if reg.Interval() != DefaultInterval {
		t.Fatalf("interval = %v", reg.Interval())
	}
	b := reg.Cell("b")
	a := reg.Cell("a")
	if reg.Cell("b") != b {
		t.Fatal("cell not cached")
	}
	if got := reg.Labels(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("labels = %v", got)
	}
	if reg.Get("a") != a || reg.Get("zzz") != nil {
		t.Fatal("Get mismatch")
	}
}

// TestSamplingTickRidesTheSimClock runs a cell on an engine and checks the
// tick fires at t=0 and then every interval until Stop, reading probes in
// registration order.
func TestSamplingTickRidesTheSimClock(t *testing.T) {
	reg := NewRegistry(2 * sim.Millisecond)
	cell := reg.Cell("c")
	depth := int64(0)
	cell.AddProbe([]string{"queue.depth"}, func(_ sim.Time, v []int64) { v[0] = depth })

	eng := sim.NewEngine()
	cell.Start(eng)
	eng.Spawn("driver", func(env *sim.Env) {
		for i := 0; i < 5; i++ {
			depth = int64(10 * (i + 1))
			env.Sleep(2 * sim.Millisecond)
		}
		cell.Stop()
	})
	eng.Run()

	// Ticks at 0,2,4,6,8,10 ms = 6 samples; the sample at tick k sees the
	// depth set by the driver's k-th step (driver and tick at the same
	// instant: tick was scheduled first at t=0, driver wakes after).
	if cell.Samples() != 6 {
		t.Fatalf("samples = %d, want 6", cell.Samples())
	}
	rows := cell.snapshot().Samples
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].V[0] != 0 || rows[5].V[0] != 50 || rows[5].T != sim.Time(10*sim.Millisecond) {
		t.Fatalf("row0=%+v row5=%+v", rows[0], rows[5])
	}
	if err := cell.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestFlightRingWrapsOldestFirst(t *testing.T) {
	reg := NewRegistry(1)
	cell := reg.Cell("w")
	cell.AddProbe([]string{"n"}, func(now sim.Time, v []int64) { v[0] = int64(now) })
	for i := 0; i < DefaultFlightDepth+50; i++ {
		cell.Sample(sim.Time(i))
	}
	data, err := cell.EncodeFlight("wrap")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ParseFlight(data)
	if err != nil {
		t.Fatal(err)
	}
	rows := rec.Samples
	if len(rows) != DefaultFlightDepth {
		t.Fatalf("ring size = %d", len(rows))
	}
	if rows[0].T != 50 || rows[len(rows)-1].T != sim.Time(DefaultFlightDepth+49) {
		t.Fatalf("ring span [%d,%d]", rows[0].T, rows[len(rows)-1].T)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].T != rows[i-1].T+1 || rows[i].V[0] != int64(rows[i].T) {
			t.Fatalf("ring not oldest-first at %d: %+v", i, rows[i])
		}
	}
}

func TestDumpFlightLatchesAndParses(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(1)
	reg.FlightDir = dir
	cell := reg.Cell("tbl/cell:1")
	cell.AddProbe([]string{"n"}, func(_ sim.Time, v []int64) { v[0] = 3 })
	cell.Sample(0)
	cell.Sample(1)

	path, err := cell.DumpFlight("injected fault")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "flight-tbl_cell_1.json" {
		t.Fatalf("path = %s", path)
	}
	if !cell.dumped {
		t.Fatal("dumped flag not set")
	}
	// First failure wins: a second trigger must not overwrite.
	if p2, err := cell.DumpFlight("cascade"); err != nil || p2 != "" {
		t.Fatalf("second dump = %q, %v", p2, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ParseFlight(data)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Cell != "tbl/cell:1" || rec.Reason != "injected fault" || len(rec.Samples) != 2 {
		t.Fatalf("record = %+v", rec)
	}
}

func TestDumpFlightNoDirIsNoOp(t *testing.T) {
	reg := NewRegistry(1)
	cell := reg.Cell("quiet")
	cell.AddProbe([]string{"n"}, func(_ sim.Time, v []int64) { v[0] = 1 })
	cell.Sample(0)
	if path, err := cell.DumpFlight("whatever"); err != nil || path != "" {
		t.Fatalf("dump = %q, %v", path, err)
	}
	if cell.dumped {
		t.Fatal("dumped without a FlightDir")
	}
}

func TestExportJSONValidatesAndCSV(t *testing.T) {
	reg := NewRegistry(10)
	cell := reg.Cell("c1")
	// Declared out of order: every artifact sorts its columns.
	cell.AddProbe([]string{"b", "a"}, func(now sim.Time, v []int64) { v[0], v[1] = 100+int64(now)/10, int64(now)/10 })
	cell.Histogram("h").Record(42)
	for i := 0; i < 3; i++ {
		cell.Sample(sim.Time(i * 10))
	}
	var buf bytes.Buffer
	if err := reg.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	dump, err := ParseDump(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(dump.Cells) != 1 || len(dump.Cells[0].Samples) != 3 {
		t.Fatalf("dump shape: %+v", dump)
	}
	if dump.Cells[0].Hists[0].Count != 1 {
		t.Fatalf("hist: %+v", dump.Cells[0].Hists)
	}
	var csv bytes.Buffer
	if err := dump.Cells[0].CSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if lines[0] != "t_ns,a,b" || lines[1] != "0,0,100" || lines[3] != "20,2,102" {
		t.Fatalf("csv:\n%s", csv.String())
	}
}

func TestValidateDumpRejectsBadShapes(t *testing.T) {
	bad := []string{
		`{"interval_ns":0,"cells":[]}`,
		`{"interval_ns":5,"cells":[]}`,
		`{"interval_ns":5,"cells":[{"label":"","names":[],"samples":[]}]}`,
		`{"interval_ns":5,"cells":[{"label":"x","names":["b","a"],"samples":[]}]}`,
		`{"interval_ns":5,"cells":[{"label":"x","names":["a","a"],"samples":[]}]}`,
		`{"interval_ns":5,"cells":[{"label":"x","names":["a"],"samples":[{"t":0,"v":[1,2]}]}]}`,
		`{"interval_ns":5,"cells":[{"label":"x","names":["a"],"samples":[{"t":5,"v":[1]},{"t":5,"v":[2]}]}]}`,
	}
	for i, s := range bad {
		if err := ValidateDump([]byte(s)); err == nil {
			t.Errorf("case %d validated", i)
		}
	}
}

func TestExportOpenMetricsShape(t *testing.T) {
	reg := NewRegistry(10)
	ca := reg.Cell("cellA")
	ca.AddProbe([]string{"q.depth"}, func(now sim.Time, v []int64) { v[0] = 4 + int64(now) })
	ca.Sample(0)
	ca.Sample(1) // the exposition carries the last row
	ca.Histogram("lat").Record(100)
	cb := reg.Cell("cellB")
	cb.AddProbe([]string{"q.depth"}, func(_ sim.Time, v []int64) { v[0] = 9 })
	cb.Sample(0)
	var buf bytes.Buffer
	counters := []metrics.KV{{Key: "fault.program_err", Value: 3}}
	if err := reg.ExportOpenMetrics(&buf, counters); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE slimio_q_depth gauge\n",
		"slimio_q_depth{cell=\"cellA\"} 5\n",
		"slimio_q_depth{cell=\"cellB\"} 9\n",
		"# TYPE slimio_lat summary\n",
		"slimio_lat{cell=\"cellA\",quantile=\"0.5\"}",
		"slimio_lat_count{cell=\"cellA\"} 1\n",
		"# TYPE slimio_counter counter\n",
		"slimio_counter_total{name=\"fault.program_err\"} 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Error("missing EOF terminator")
	}
}

// TestNilRegistryAllocFree is the off-switch contract: a nil registry hands
// out nil cells whose every operation is a no-op with zero allocations — the
// same deal as vtrace's nil *Tracer.
func TestNilRegistryAllocFree(t *testing.T) {
	var reg *Registry
	cell := reg.Cell("anything")
	if cell != nil {
		t.Fatal("nil registry returned a cell")
	}
	allocs := testing.AllocsPerRun(200, func() {
		cell.Histogram("h").Record(3)
		cell.AddProbe(nil, nil)
		cell.SetTracer(nil)
		cell.Start(nil)
		cell.Sample(9)
		cell.Stop()
		_ = cell.Label()
		_ = cell.Samples()
		_ = reg.Interval()
		_ = reg.Labels()
		_ = cell.Err()
		_, _ = cell.DumpFlight("x")
	})
	if allocs != 0 {
		t.Fatalf("nil telemetry allocated %.1f per op, want 0", allocs)
	}
}

func TestEncodeFlightIncludesDropNotes(t *testing.T) {
	reg := NewRegistry(10)
	cell := reg.Cell("drops")
	cell.AddProbe([]string{"bad"}, func(_ sim.Time, v []int64) { v[0] = 2 })
	cell.Sample(-5) // dropped: before the clock's origin
	cell.Sample(0)
	cell.Sample(0) // dropped: time did not advance
	data, err := cell.EncodeFlight("why")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ParseFlight(data)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Dropped != 2 || len(rec.Samples) != 1 || cell.Samples() != 3 {
		t.Fatalf("dropped=%d rows=%d ticks=%d", rec.Dropped, len(rec.Samples), cell.Samples())
	}
	if err := cell.Err(); err == nil || !strings.Contains(err.Error(), "2 samples dropped") {
		t.Fatalf("Err = %v", err)
	}
}

// TestTickPastRowCapIsCountedNotStored: the table stops growing at its cap;
// later ticks run no probe, store nothing, and show up in Err and the
// flight record.
func TestTickPastRowCapIsCountedNotStored(t *testing.T) {
	reg := NewRegistry(1)
	cell := reg.Cell("capped")
	if cell.maxRows != metrics.MaxSeriesBuckets {
		t.Fatalf("row cap = %d, want metrics.MaxSeriesBuckets", cell.maxRows)
	}
	cell.maxRows = 4
	probed := 0
	cell.AddProbe([]string{"n"}, func(now sim.Time, v []int64) { probed++; v[0] = int64(now) })
	for i := 0; i < 7; i++ {
		cell.Sample(sim.Time(i))
	}
	cd := cell.snapshot()
	if len(cd.Samples) != 4 || cd.Samples[3].T != 3 || probed != 4 {
		t.Fatalf("rows=%d probed=%d", len(cd.Samples), probed)
	}
	if cell.Samples() != 7 {
		t.Fatalf("ticks = %d, want 7", cell.Samples())
	}
	if err := cell.Err(); err == nil || !strings.Contains(err.Error(), "3 samples dropped") {
		t.Fatalf("Err = %v", err)
	}
	data, err := cell.EncodeFlight("cap")
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := ParseFlight(data); err != nil || rec.Dropped != 3 {
		t.Fatalf("flight dropped = %+v, %v", rec, err)
	}
}

// TestLateRegistrationIsAnError: the first sample freezes the schema, so a
// probe declared afterwards changes no artifact and Err names its columns.
func TestLateRegistrationIsAnError(t *testing.T) {
	reg := NewRegistry(1)
	cell := reg.Cell("late")
	cell.AddProbe([]string{"early"}, func(_ sim.Time, v []int64) { v[0] = 1 })
	cell.Sample(0)
	if err := cell.Err(); err != nil {
		t.Fatal(err)
	}
	cell.AddProbe([]string{"tardy"}, func(_ sim.Time, v []int64) { t.Error("late probe ran") })
	cell.Sample(1)
	if err := cell.Err(); err == nil || !strings.Contains(err.Error(), "tardy") {
		t.Fatalf("Err = %v", err)
	}
	var buf bytes.Buffer
	if err := reg.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	dump, err := ParseDump(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	flight, err := cell.EncodeFlight("late")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ParseFlight(flight)
	if err != nil {
		t.Fatal(err)
	}
	for _, names := range [][]string{dump.Cells[0].Names, rec.Names} {
		if len(names) != 1 || names[0] != "early" {
			t.Fatalf("schema = %v, want [early] in the dump and the flight record alike", names)
		}
	}
}

// TestDumpFlightRetriesAfterFailedWrite: a dump that never reached the disk
// must not latch the recorder shut — once the directory is usable the next
// trigger writes the record.
func TestDumpFlightRetriesAfterFailedWrite(t *testing.T) {
	dir := t.TempDir()
	blocker := filepath.Join(dir, "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(1)
	reg.FlightDir = filepath.Join(blocker, "flights") // under a regular file
	cell := reg.Cell("retry")
	cell.AddProbe([]string{"n"}, func(_ sim.Time, v []int64) { v[0] = 1 })
	cell.Sample(0)
	if path, err := cell.DumpFlight("first"); err == nil {
		t.Fatalf("dump under a regular file succeeded: %q", path)
	}
	if cell.dumped {
		t.Fatal("failed dump latched the recorder")
	}
	reg.FlightDir = filepath.Join(dir, "flights")
	path, err := cell.DumpFlight("second")
	if err != nil || path == "" {
		t.Fatalf("second trigger: %q, %v", path, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := ParseFlight(data); err != nil || rec.Reason != "second" || !cell.dumped {
		t.Fatalf("record = %+v, %v", rec, err)
	}
}
