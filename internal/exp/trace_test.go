package exp

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/telemetry"
	"github.com/slimio/slimio/internal/vtrace"
	"github.com/slimio/slimio/internal/workload"
)

// tracedScale is the small tracing workload shared by the trace tests:
// one repetition of a Table 3 cell pair, short enough to run in CI.
func tracedScale() Scale {
	sc := SmallScale()
	sc.Reps = 1
	sc.OpsPerRep = 15_000
	return sc
}

func runTracedCell(t *testing.T, kind BackendKind, sc Scale) *CellResult {
	t.Helper()
	res, err := RunCell(CellConfig{
		Kind: kind, Policy: imdb.PeriodicalLog, Scale: sc,
		Workload:       workload.RedisBench(0, sc.KeyRange),
		onDemandPerRep: true,
	})
	if err != nil {
		t.Fatalf("run %s: %v", kind, err)
	}
	res.Stack.Eng.Shutdown()
	return res
}

// TestGoldenTraceDeterminism is the tracing analogue of the metric
// determinism gate: the exported Chrome-trace JSON must be byte-identical
// across repeated serial runs and under the parallel cell scheduler.
func TestGoldenTraceDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("golden-trace determinism is not a -short test")
	}
	kinds := []BackendKind{BaselineF2FS, SlimIOFDP}
	runPair := func(parallel int) []byte {
		sc := tracedScale()
		sc.Trace = vtrace.NewRegistry()
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
			return nil
		})
		if err != nil {
			t.Fatalf("run pair (parallel=%d): %v", parallel, err)
		}
		var buf bytes.Buffer
		if err := sc.Trace.Export(&buf); err != nil {
			t.Fatalf("export (parallel=%d): %v", parallel, err)
		}
		return buf.Bytes()
	}

	serial1 := runPair(1)
	serial2 := runPair(1)
	concurrent := runPair(2)
	if !bytes.Equal(serial1, serial2) {
		t.Errorf("serial trace export not reproducible: %d vs %d bytes", len(serial1), len(serial2))
	}
	if !bytes.Equal(serial1, concurrent) {
		t.Errorf("parallel trace export diverges from serial: %d vs %d bytes", len(serial1), len(concurrent))
	}
	if err := vtrace.ValidateTrace(serial1); err != nil {
		t.Errorf("exported trace fails schema validation: %v", err)
	}
	if len(serial1) == 0 || bytes.Equal(serial1, []byte("[]")) {
		t.Errorf("exported trace is empty")
	}
}

// TestTraceTinyGolden pins what a traced tiny Table 3 exports: the byte
// length and sha256 of the Chrome trace (the file `slimio-bench -exp table3
// -scale tiny -vtrace` writes, ~19 MB, too big to commit verbatim), the
// attribution report of every cell, and the spans of one cell's flight
// record. TestGoldenTraceDeterminism only compares runs with each other;
// this compares them with a committed reference.
func TestTraceTinyGolden(t *testing.T) {
	sc := TinyScale()
	sc.Trace = vtrace.NewRegistry()
	sc.Telemetry = telemetry.NewRegistry(0)
	if _, err := RunTable3(sc); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sc.Trace.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	fmt.Fprintf(&got, "trace.json %d bytes sha256 %x\n", buf.Len(), sha256.Sum256(buf.Bytes()))
	for _, label := range sc.Trace.Labels() {
		fmt.Fprintf(&got, "\nattribution %s:\n%s", label, vtrace.Compute(sc.Trace.Get(label)).Format())
	}

	const flightCell = "slimio-fdp/always"
	data, err := sc.Telemetry.Get(flightCell).EncodeFlight("golden")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := telemetry.ParseFlight(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Spans) == 0 {
		t.Fatalf("flight record of %s carries no spans", flightCell)
	}
	fmt.Fprintf(&got, "\nflight %s: %d spans\n", flightCell, len(rec.Spans))
	for _, s := range rec.Spans {
		fmt.Fprintf(&got, "  %s/%s %d %d %d\n", s.Layer, s.Name, s.Start, s.End, s.Arg)
	}
	checkGolden(t, "trace_tiny", got.String())
}

// TestAttributionSumsToEndToEnd asserts the two acceptance properties of
// the attribution report on a real Table 3 cell:
//
//  1. Telescoping: within every root tree the per-stage self-times sum to
//     the root duration *exactly* (int64 identity), so Σ Stages.Self ==
//     OpStat.Total for every op type and background tree.
//  2. The attribution's per-op mean matches the workload-measured
//     end-to-end mean latency within 1%.
func TestAttributionSumsToEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("attribution acceptance is not a -short test")
	}
	sc := tracedScale()
	sc.Trace = vtrace.NewRegistry()
	res := runTracedCell(t, SlimIOFDP, sc)

	a := vtrace.Compute(res.trace)
	if len(a.Ops) == 0 {
		t.Fatalf("no op spans recorded")
	}
	check := func(group string, ops []vtrace.OpStat) {
		for i := range ops {
			op := &ops[i]
			var sum int64
			for _, st := range op.Stages {
				sum += int64(st.Self)
			}
			if sum != int64(op.Total) {
				t.Errorf("%s %q: stage self-times sum to %d, root total %d", group, op.Name, sum, int64(op.Total))
			}
		}
	}
	check("op", a.Ops)
	check("tree", a.Trees)

	var set *vtrace.OpStat
	for i := range a.Ops {
		if a.Ops[i].Name == "set" {
			set = &a.Ops[i]
		}
	}
	if set == nil {
		t.Fatalf("no set op in attribution (ops: %v)", a.Ops)
	}
	measured := res.setHist.Mean()
	attributed := set.Mean()
	if measured == 0 {
		t.Fatalf("measured set mean is zero")
	}
	diff := float64(attributed-measured) / float64(measured)
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.01 {
		t.Errorf("attributed set mean %v deviates %.2f%% from measured mean %v (want <= 1%%)",
			attributed, diff*100, measured)
	}
	if set.Count != res.setHist.Count() {
		t.Errorf("attributed %d set ops, workload measured %d", set.Count, res.setHist.Count())
	}

	// The rendered report must carry the headline split for the op table.
	out := a.Format()
	for _, want := range []string{"per-op end-to-end latency", "set decomposition", "background trees"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("attribution report missing %q:\n%s", want, out)
		}
	}
}
