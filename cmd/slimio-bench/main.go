// Command slimio-bench regenerates the paper's evaluation — Tables 1-5 and
// Figures 2, 4, 5 — at a chosen scale and prints it in the paper's row
// format. It is the only front door to those artifacts: the figure CSV
// series (-series), per-layer latency attribution (-vtrace) and telemetry
// dumps (-telemetry) all come from the same runs.
//
// Usage:
//
//	slimio-bench -exp all                 # every table and figure, small scale
//	slimio-bench -exp table3              # one experiment
//	slimio-bench -exp table3 -scale tiny  # quick run
//	slimio-bench -exp table3 -device 1024 -ops 200000 -keys 40000
//	slimio-bench -exp fig4 -series plots/ # Figure 4 RPS timelines as CSV
//	slimio-bench -exp ablation            # SlimIO's mechanisms one at a time
//	slimio-bench -tenants 4 -noisy        # multi-tenant isolation experiment
//	slimio-bench -exp inspect -scale tiny # device state: slots, RUs, per-PID writes, reclaim log, wear
//
// Experiments: table1 table2 table3 table4 table5 fig2 fig4 fig5 all, plus
// ablation, isolation (also selected by -tenants) and inspect. "all" is the
// paper's evaluation; those three go beyond it and run only when named.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"github.com/slimio/slimio/internal/exp"
	"github.com/slimio/slimio/internal/metrics"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/telemetry"
	"github.com/slimio/slimio/internal/vtrace"
)

func main() {
	var (
		expName = flag.String("exp", "", "comma-separated experiments: table1..table5, fig2, fig4, fig5, all (the paper's evaluation, the default), or ablation, isolation, inspect (beyond it)")
		scale   = flag.String("scale", "small", "scale preset: tiny, small or paper")
		device  = flag.Int64("device", 0, "override device size in MiB")
		keys    = flag.Int64("keys", 0, "override key range")
		ops     = flag.Int64("ops", 0, "override operations per repetition")
		reps    = flag.Int("reps", 0, "override repetitions")
		trigger = flag.Int64("trigger", 0, "override WAL-snapshot trigger in MiB")
		window  = exp.SimDurationFlag(flag.CommandLine, "window", 3*sim.Second, "figure 4/5 window (virtual time)")
		series  = flag.String("series", "", "write the figure 4/5 runtime-RPS series as fig<N>-<system>.csv into this directory")
		tenants = flag.Int("tenants", 0, "run the multi-tenant isolation experiment with this many co-located engines (adds exp \"isolation\")")
		noisy   = flag.Bool("noisy", false, "make tenant 0 a Zipf-heavy overwriter in the isolation experiment")

		parallel   = flag.Int("parallel", 0, "experiment cells run concurrently (0 = GOMAXPROCS, 1 = serial)")
		vtraceOut  = flag.String("vtrace", "", "trace the run and write a Chrome trace-event JSON file (requires a single -exp)")
		teleDir    = flag.String("telemetry", "", "sample per-layer telemetry and write telemetry.json, metrics.prom, and per-cell CSVs into this directory (requires a single -exp)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")

		faultSeed  = flag.Int64("fault-seed", 0, "seed for the deterministic fault plan")
		readErr    = flag.Float64("read-err-rate", 0, "per-read probability of a transient read failure")
		programErr = flag.Float64("program-err-rate", 0, "per-program probability of a permanent failure (retires the block)")
		eraseErr   = flag.Float64("erase-err-rate", 0, "per-erase probability of an erase failure (retires the block)")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	sc, err := exp.ScaleByName(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *device > 0 {
		sc.DeviceBytes = *device << 20
	}
	if *keys > 0 {
		sc.KeyRange = *keys
	}
	if *ops > 0 {
		sc.OpsPerRep = *ops
	}
	if *reps > 0 {
		sc.Reps = *reps
	}
	if *trigger > 0 {
		sc.WALTriggerBytes = *trigger << 20
	}
	ctr := &metrics.Counter{}
	sc.FaultSeed = *faultSeed
	sc.ReadErrRate = *readErr
	sc.ProgramErrRate = *programErr
	sc.EraseErrRate = *eraseErr
	sc.Metrics = ctr
	sc.Parallel = *parallel

	single := ""
	if *vtraceOut != "" {
		single = "-vtrace"
	} else if *teleDir != "" {
		single = "-telemetry"
	}
	wanted, err := resolveExperiments(*expName, *tenants, single)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *vtraceOut != "" {
		sc.Trace = vtrace.NewRegistry()
	}
	if *teleDir != "" {
		sc.Telemetry = telemetry.NewRegistry(0)
		// Failures mid-run (unrecovered faults, cell panics) dump their
		// flight records next to the telemetry artifacts.
		sc.Telemetry.FlightDir = *teleDir
	}

	args := runArgs{sc: sc, window: *window, series: *series, tenants: *tenants, noisy: *noisy}
	start := time.Now()
	for _, e := range experiments {
		if !slices.Contains(wanted, e.name) {
			continue
		}
		t0 := time.Now()
		out, err := e.run(args)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println(out.String())
		fmt.Printf("(%s finished in %.1fs wall time)\n\n", e.name, time.Since(t0).Seconds())
		// Each experiment holds a full simulated device (real page bytes);
		// return the memory before building the next one.
		debug.FreeOSMemory()
	}
	printFaultCounters(ctr)
	if sc.Trace != nil {
		if err := writeTrace(*vtraceOut, sc.Trace); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if sc.Telemetry != nil {
		if err := writeTelemetry(*teleDir, sc.Telemetry, ctr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	fmt.Printf("total wall time %.1fs\n", time.Since(start).Seconds())
}

// runArgs is what the command line hands an experiment.
type runArgs struct {
	sc      exp.Scale
	window  sim.Duration // figures 4 and 5
	series  string       // figures 4 and 5
	tenants int          // isolation
	noisy   bool         // isolation
}

// experiments lists every -exp name in run order. The paper ones are what
// "all" expands to; the rest go beyond the paper and run only when named.
var experiments = []struct {
	name  string
	paper bool
	run   func(a runArgs) (fmt.Stringer, error)
}{
	{"table1", true, func(a runArgs) (fmt.Stringer, error) { return exp.RunTable1(a.sc) }},
	{"table2", true, func(a runArgs) (fmt.Stringer, error) { return exp.RunTable2(a.sc) }},
	{"fig2", true, func(a runArgs) (fmt.Stringer, error) { return exp.RunFigure2(a.sc) }},
	{"table3", true, func(a runArgs) (fmt.Stringer, error) { return exp.RunTable3(a.sc) }},
	{"table4", true, func(a runArgs) (fmt.Stringer, error) { return exp.RunTable4(a.sc) }},
	{"table5", true, func(a runArgs) (fmt.Stringer, error) { return exp.RunTable5(a.sc) }},
	{"fig4", true, func(a runArgs) (fmt.Stringer, error) { return runFigure(4, a.sc, a.window, a.series) }},
	{"fig5", true, func(a runArgs) (fmt.Stringer, error) { return runFigure(5, a.sc, a.window, a.series) }},
	{"ablation", false, func(a runArgs) (fmt.Stringer, error) { return exp.RunAblation(a.sc) }},
	{"isolation", false, func(a runArgs) (fmt.Stringer, error) { return exp.RunIsolation(a.sc, a.tenants, a.noisy) }},
	{"inspect", false, func(a runArgs) (fmt.Stringer, error) { return exp.RunInspect(a.sc) }},
}

// resolveExperiments turns the comma-separated -exp value (empty: not given)
// into the experiments to run, in run order. -tenants selects isolation:
// alone it runs just that, beside an -exp it adds it. A non-empty single
// names the flag (-vtrace or -telemetry) that allows only one experiment:
// tracer and telemetry labels are per-cell, and reusing a label across
// experiments would interleave unrelated runs in one lane.
func resolveExperiments(expFlag string, tenants int, single string) ([]string, error) {
	switch {
	case expFlag == "" && tenants > 0:
		expFlag = "isolation"
	case expFlag == "":
		expFlag = "all"
	case tenants > 0:
		expFlag += ",isolation"
	}
	want := map[string]bool{}
	for _, n := range strings.Split(expFlag, ",") {
		known := n == "all"
		for _, e := range experiments {
			if e.name == n || (n == "all" && e.paper) {
				want[e.name] = true
				known = true
			}
		}
		if !known {
			valid := make([]string, len(experiments))
			for i, e := range experiments {
				valid[i] = e.name
			}
			return nil, fmt.Errorf("unknown experiment %q (valid: %s, all)", n, strings.Join(valid, ", "))
		}
	}
	var out []string
	for _, e := range experiments {
		if want[e.name] {
			out = append(out, e.name)
		}
	}
	if single != "" && len(out) != 1 {
		return nil, fmt.Errorf("%s requires exactly one -exp experiment", single)
	}
	return out, nil
}

// printFaultCounters summarizes injected faults and how the stack absorbed
// them (retries, retired blocks, migrations, lost pages) across every
// experiment that ran. Silent when nothing was injected or counted.
func printFaultCounters(ctr *metrics.Counter) {
	kvs := ctr.Sorted()
	if len(kvs) == 0 {
		return
	}
	fmt.Println("Fault & error-handling counters (all experiments):")
	for _, kv := range kvs {
		fmt.Printf("  %-24s %d\n", kv.Key, kv.Value)
	}
	fmt.Println()
}

// writeTelemetry exports the run's telemetry registry into dir: the
// canonical JSON dump (validated against its own schema before writing, the
// same trust-but-verify step as writeTrace), an OpenMetrics text snapshot
// carrying the fault/error counter totals, and one CSV time-series per cell.
func writeTelemetry(dir string, reg *telemetry.Registry, ctr *metrics.Counter) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := reg.ExportJSON(&buf); err != nil {
		return fmt.Errorf("export telemetry: %w", err)
	}
	if err := telemetry.ValidateDump(buf.Bytes()); err != nil {
		return fmt.Errorf("exported telemetry failed validation: %w", err)
	}
	dumpPath := filepath.Join(dir, "telemetry.json")
	if err := os.WriteFile(dumpPath, buf.Bytes(), 0o644); err != nil {
		return err
	}

	var prom bytes.Buffer
	if err := reg.ExportOpenMetrics(&prom, ctr.Sorted()); err != nil {
		return fmt.Errorf("export openmetrics: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "metrics.prom"), prom.Bytes(), 0o644); err != nil {
		return err
	}

	dump := reg.Snapshot()
	for i := range dump.Cells {
		c := &dump.Cells[i]
		var csv bytes.Buffer
		if err := c.CSV(&csv); err != nil {
			return err
		}
		name := telemetry.SanitizeLabel(c.Label) + ".csv"
		if err := os.WriteFile(filepath.Join(dir, name), csv.Bytes(), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %s (%d bytes, %d cells)\n", dumpPath, buf.Len(), len(dump.Cells))
	return nil
}

// writeTrace exports the run's span registry as Chrome trace-event JSON,
// validating it against the trace-event schema before writing.
func writeTrace(path string, reg *vtrace.Registry) error {
	var buf bytes.Buffer
	if err := reg.Export(&buf); err != nil {
		return fmt.Errorf("export trace: %w", err)
	}
	if err := vtrace.ValidateTrace(buf.Bytes()); err != nil {
		return fmt.Errorf("exported trace failed validation: %w", err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes, %d cells)\n", path, buf.Len(), len(reg.Labels()))
	return nil
}

// figureReport is the text summary of one runtime-RPS figure.
type figureReport struct {
	name    string
	systems []*exp.TimelineResult // baseline, then SlimIO
	warmup  sim.Duration
}

// runFigure runs Figure n's two timelines; a non-empty seriesDir also gets
// each system's full per-interval series as fig<n>-<system>.csv.
func runFigure(n int, sc exp.Scale, window sim.Duration, seriesDir string) (fmt.Stringer, error) {
	figure := exp.RunFigure4
	if n == 5 {
		figure = exp.RunFigure5
	}
	base, slim, err := figure(sc, window)
	if err != nil {
		return nil, err
	}
	f := &figureReport{name: fmt.Sprintf("Figure %d", n), systems: []*exp.TimelineResult{base, slim}, warmup: window / 5}
	if seriesDir == "" {
		return f, nil
	}
	if err := os.MkdirAll(seriesDir, 0o755); err != nil {
		return nil, err
	}
	for _, tr := range f.systems {
		path := filepath.Join(seriesDir, fmt.Sprintf("fig%d-%s.csv", n, tr.Kind))
		if err := os.WriteFile(path, []byte(tr.Series.CSV()), 0o644); err != nil {
			return nil, err
		}
		fmt.Printf("wrote %s (WAF %.2f, %d GC runs)\n", path, tr.WAF, tr.GCRuns)
	}
	return f, nil
}

func (f *figureReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: Runtime RPS summary (-series DIR writes the full series)\n", f.name)
	fmt.Fprintf(&b, "%-16s %12s %12s %10s %8s %8s\n", "System", "Mean RPS", "Min RPS", "Floor", "Dips", "WAF")
	for _, tr := range f.systems {
		s := tr.Summarize(f.warmup)
		floor := 0.0
		if s.MeanRPS > 0 {
			floor = s.MinRPS / s.MeanRPS
		}
		fmt.Fprintf(&b, "%-16s %12.0f %12.0f %9.0f%% %8d %8.2f\n",
			tr.Kind, s.MeanRPS, s.MinRPS, 100*floor, s.Nosedives, tr.WAF)
	}
	// A traced run (-vtrace) also gets the per-layer attribution, as
	// OverallResult.String prints it for the tables.
	for _, tr := range f.systems {
		if tr.Trace == nil {
			continue
		}
		fmt.Fprintf(&b, "\nLatency attribution — %s:\n", tr.Kind)
		b.WriteString(vtrace.Compute(tr.Trace).Format())
	}
	return b.String()
}
