package exp

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/slimio/slimio/internal/bufpool"
	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/telemetry"
	"github.com/slimio/slimio/internal/vtrace"
	"github.com/slimio/slimio/internal/workload"
)

// TestTelemetryDumpSerialParallelIdentical is the determinism acceptance
// gate: because sampling rides the virtual clock of each cell's own engine,
// running the table serially or with every cell concurrent must produce the
// same dump, byte for byte.
func TestTelemetryDumpSerialParallelIdentical(t *testing.T) {
	run := func(parallel int) ([]byte, string) {
		sc := TinyScale()
		sc.Parallel = parallel
		sc.Telemetry = telemetry.NewRegistry(0)
		res, err := RunTable3(sc)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sc.Telemetry.ExportJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), res.String()
	}
	serial, table := run(1)
	parallel, _ := run(0)
	// Sampling only reads state, so the telemetered table is the plain one.
	checkGolden(t, "table3_tiny", table)
	if err := telemetry.ValidateDump(serial); err != nil {
		t.Fatalf("serial dump invalid: %v", err)
	}
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("telemetry dump differs between serial (%d bytes) and parallel (%d bytes) runs",
			len(serial), len(parallel))
	}
}

// TestFigureTelemetryCells: the timeline cells of Figures 4/5 go through the
// same prologue as table cells, so a telemetered, traced figure run exports
// one cell per system carrying both the stack's and the engine's gauges.
func TestFigureTelemetryCells(t *testing.T) {
	sc := TinyScale()
	sc.Telemetry = telemetry.NewRegistry(0)
	sc.Trace = vtrace.NewRegistry()
	if _, _, err := RunFigure5(sc, 300*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sc.Telemetry.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// ParseDump is ValidateDump that keeps the result.
	dump, err := telemetry.ParseDump(buf.Bytes())
	if err != nil {
		t.Fatalf("figure dump invalid: %v", err)
	}
	want := []string{BaselineF2FS.String(), SlimIOFDP.String()}
	if len(dump.Cells) != len(want) {
		t.Fatalf("dump has %d cells, want %v", len(dump.Cells), want)
	}
	for i := range dump.Cells {
		c := &dump.Cells[i]
		if c.Label != want[i] {
			t.Errorf("cell %d labelled %q, want %q", i, c.Label, want[i])
		}
		for _, gauge := range []string{"imdb.wal_buf_bytes", "ftl.host_write_pages"} {
			if c.Column(gauge) < 0 {
				t.Errorf("cell %q has no %s gauge", c.Label, gauge)
			}
		}
	}
}

// wafSeries builds a stack of kind, attaches telemetry, runs churn as a sim
// process, and returns the cell's sampled dump.
func wafSeries(t *testing.T, kind BackendKind, churn func(env *sim.Env, st *Stack)) *telemetry.CellDump {
	t.Helper()
	reg := telemetry.NewRegistry(sim.Millisecond)
	cell := reg.Cell(kind.String())
	eng := sim.NewEngine()
	st, err := BuildStack(eng, kind, TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	AttachStackTelemetry(st, cell)
	cell.Start(eng)
	eng.Spawn("churn", func(env *sim.Env) {
		churn(env, st)
		cell.Stop()
	})
	eng.Run()

	var buf bytes.Buffer
	if err := reg.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	dump, err := telemetry.ParseDump(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return &dump.Cells[0]
}

// series extracts one gauge's sampled values from a cell dump.
func series(t *testing.T, c *telemetry.CellDump, name string) []int64 {
	t.Helper()
	idx := -1
	for i, n := range c.Names {
		if n == name {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatalf("gauge %q missing from dump: %v", name, c.Names)
	}
	out := make([]int64, len(c.Samples))
	for k, s := range c.Samples {
		out[k] = s.V[idx]
	}
	return out
}

// TestLiveWAFSeries checks the paper's headline telemetry claim at the
// series level, not just the endpoint: under separated lifetimes on FDP the
// live WAF gauge reads exactly 1.00 at every sampled tick, while the
// conventional device under mixed-lifetime churn shows nand pulling away
// from host as reclaim copies.
func TestLiveWAFSeries(t *testing.T) {
	onePage := bufpool.Borrowed(make([]byte, 4096))

	// Conventional device, one placement stream, random overwrites of a hot
	// half: reclaim has to copy, so cumulative nand > host and the gap grows.
	conv := wafSeries(t, BaselineF2FS, func(env *sim.Env, st *Stack) {
		rng := rand.New(rand.NewSource(9))
		hot := st.Dev.Capacity() / 2
		for i := int64(0); i < st.Dev.Capacity()*4; i++ {
			if err := st.Dev.Write(env, rng.Int63n(hot), []bufpool.Ref{onePage}, 0); err != nil {
				t.Error(err)
				return
			}
		}
	})
	host, nand := series(t, conv, "ftl.host_write_pages"), series(t, conv, "ftl.nand_write_pages")
	if len(host) < 4 {
		t.Fatalf("conventional run sampled only %d ticks", len(host))
	}
	last := len(host) - 1
	if nand[last] <= host[last] {
		t.Fatalf("conventional churn: nand=%d host=%d, want amplification", nand[last], host[last])
	}
	mid := last / 2
	if nand[last]-host[last] <= nand[mid]-host[mid] {
		t.Fatalf("amplification gap did not grow: mid %d, end %d",
			nand[mid]-host[mid], nand[last]-host[last])
	}

	// FDP device, lifetimes separated by placement ID (cold data written
	// once on PID 2, a circular log on PID 1 with trims): every sampled
	// tick must read WAF exactly 1.00 — nand == host from start to finish.
	fdpCell := wafSeries(t, SlimIOFDP, func(env *sim.Env, st *Stack) {
		region := st.Dev.Capacity() / 4
		for lpa := int64(0); lpa < region; lpa++ {
			if err := st.Dev.Write(env, region*2+lpa, []bufpool.Ref{onePage}, 2); err != nil {
				t.Error(err)
				return
			}
		}
		for round := 0; round < 8; round++ {
			for lpa := int64(0); lpa < region; lpa++ {
				if err := st.Dev.Write(env, lpa, []bufpool.Ref{onePage}, 1); err != nil {
					t.Error(err)
					return
				}
			}
			if err := st.Dev.Deallocate(0, region); err != nil {
				t.Error(err)
				return
			}
		}
	})
	host, nand = series(t, fdpCell, "ftl.host_write_pages"), series(t, fdpCell, "ftl.nand_write_pages")
	if len(host) < 4 {
		t.Fatalf("FDP run sampled only %d ticks", len(host))
	}
	last = len(host) - 1
	if host[last] == 0 {
		t.Fatal("FDP churn wrote nothing")
	}
	for i := range host {
		if nand[i] != host[i] {
			t.Fatalf("tick %d: nand=%d host=%d, want WAF exactly 1.00 at every tick", i, nand[i], host[i])
		}
	}
	// Not vacuous: the device must actually have reclaimed RUs while
	// holding WAF at 1.00, or the series proves nothing about GC.
	if reclaimed := series(t, fdpCell, "fdp.rus_reclaimed"); reclaimed[last] == 0 {
		t.Fatal("reclaim never ran while WAF held 1.00; enlarge the churn")
	}
}

// TestFlightRecorderFiresOnRunError: a cell whose device fails every program
// must error out of RunCell and leave exactly one flight-recorder JSON; a
// clean cell with the same telemetry wiring must leave none.
func TestFlightRecorderFiresOnRunError(t *testing.T) {
	dir := t.TempDir()
	run := func(programErrRate float64) error {
		sc := TinyScale()
		sc.FaultSeed = 1
		sc.ProgramErrRate = programErrRate
		sc.Telemetry = telemetry.NewRegistry(0)
		sc.Telemetry.FlightDir = dir
		// AlwaysLog + Preload: every preload Set syncs through the device,
		// so a persistent program failure surfaces as the cell's run error
		// rather than being absorbed as a snapshot abort.
		_, err := RunCell(CellConfig{
			Kind: SlimIOFDP, Policy: imdb.AlwaysLog, Scale: sc,
			Workload:   workload.RedisBench(0, sc.KeyRange),
			Preload:    true,
			traceLabel: fmt.Sprintf("flight-test-%v", programErrRate),
		})
		return err
	}

	if err := run(1.0); err == nil {
		t.Fatal("every program failing must surface as a cell error")
	}
	path := filepath.Join(dir, "flight-flight-test-1.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("flight recorder did not fire: %v", err)
	}
	rec, err := telemetry.ParseFlight(data)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Cell != "flight-test-1" || rec.Reason == "" {
		t.Fatalf("flight record = %+v", rec)
	}

	if err := run(0); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("clean run must not dump a flight record; dir has %v", names)
	}
}

// TestFailedClientOpsFailTheCell: client ops the engine fails are counted, not
// a panic, and a cell with any of them errors out of RunCell through the same
// flight-recorder path as any other run error. Under Periodical-Log the cell
// must still shut its engine down on the way out, or the flush ticker keeps
// the simulation running forever.
func TestFailedClientOpsFailTheCell(t *testing.T) {
	for _, tc := range []struct {
		name    string
		policy  imdb.LogPolicy
		preload bool
		want    string
	}{
		{"always", imdb.AlwaysLog, false, "client ops failed"},
		{"periodical", imdb.PeriodicalLog, false, "client ops failed"},
		{"periodical-preload", imdb.PeriodicalLog, true, "write refused"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := TinyScale()
			sc.FaultSeed, sc.ProgramErrRate = 1, 1.0
			sc.Telemetry = telemetry.NewRegistry(0)
			sc.Telemetry.FlightDir = t.TempDir()
			label := "failed-ops-" + tc.name
			// No WAL-Snapshots: the clients' own log writes are the first to
			// fail, and no snapshot parks them.
			done := make(chan error, 1)
			go func() {
				_, err := RunCell(CellConfig{
					Kind: SlimIOFDP, Policy: tc.policy, Scale: sc,
					Workload:            workload.RedisBench(0, sc.KeyRange),
					Preload:             tc.preload,
					disableWALSnapshots: true,
					traceLabel:          label,
				})
				done <- err
			}()
			var err error
			select {
			case err = <-done:
			case <-time.After(time.Minute):
				t.Fatal("RunCell never returned: the failed cell left its engine running")
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RunCell = %v, want a cell error containing %q", err, tc.want)
			}
			data, rerr := os.ReadFile(filepath.Join(sc.Telemetry.FlightDir, "flight-"+label+".json"))
			if rerr != nil {
				t.Fatalf("flight recorder did not fire: %v", rerr)
			}
			rec, rerr := telemetry.ParseFlight(data)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if rec.Reason != "run error: "+err.Error() {
				t.Fatalf("flight reason = %q, want the cell error", rec.Reason)
			}
		})
	}
}
