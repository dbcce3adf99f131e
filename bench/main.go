// Command bench is the repository's host-clock benchmark of the simulator:
// five workloads, six end-to-end metrics measured on the host (wall clock,
// getrusage CPU, VmHWM) and per-layer counts, spans and probes that say in
// which layer the host time sits. See bench/README.md.
//
// One workload, as BENCHMARK.json's command runs it:
//
//	go run ./bench --workload set-always-slimio --seed 1 --seconds 15 --trace 0
//
// prints, as the last line of standard output, one JSON object with the keys
// correct, attempted, failed and metrics. Without --workload the whole set
// runs, each workload in a child process; --selfcheck runs the set twice and
// compares the two against the metrics' bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// timedReps repetitions, each on a fresh stack, follow one discarded
// warm-up; a metric's value is their median. Single repetitions differ by
// about 5 % on the shared 2-core sandbox, so five short ones give a steadier
// median than three long ones in the same time.
const (
	timedReps   = 5
	warmupShare = 0.1 // the warm-up runs this share of a repetition's ops
)

// runConfig is one invocation's arguments.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	outDir   string
	tiny     bool // smoke test only: small devices, see repOptions
}

// envInfo records what the numbers were measured on.
type envInfo struct {
	GoVersion     string `json:"go_version"`
	NumCPU        int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	ScaleParallel int    `json:"scale_parallel"`
	Validation    string `json:"validation"`
}

// report is the full record of one run, written to <out>/<workload>-report.json
// (untraced) or <workload>-layers.json (traced). The contract line on
// standard output carries only value and unit of each metric.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	OpsPerRep int64              `json:"ops_per_rep"`
	Env       envInfo            `json:"env"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	SimDigest string             `json:"sim_digest"`
	Checks    []string           `json:"failed_checks"`
	Slices    int                `json:"slice_samples,omitempty"`
	Metrics   map[string]reading `json:"metrics"`
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) contract() contractLine {
	cl := contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]contractMetric, len(r.Metrics))}
	for name, m := range r.Metrics {
		cl.Metrics[name] = contractMetric{Value: m.Value, Unit: m.Unit}
	}
	return cl
}

func currentEnv() envInfo {
	return envInfo{
		GoVersion:     runtime.Version(),
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		ScaleParallel: 1,
		Validation: "virtual-clock statistics are shape-validated against the paper only (EXPERIMENTS.md); " +
			"no error figure exists, so they are checks (sim_digest), not measurements",
	}
}

// repRunner runs one repetition of a workload at the given op count.
type repRunner func(ops, seed int64, opt repOptions) (*repResult, error)

// lookupWorkload returns the repetition runner for name and the rate (ops
// per second of whole-repetition host time on the 2-core sandbox) that sizes
// its repetitions; no result ever reads the rate.
func lookupWorkload(name string) (repRunner, float64, error) {
	if name == "dev-churn" {
		return runChurnRep, churnPagesPerSec, nil
	}
	for _, w := range engineWorkloads {
		if w.name == name {
			w := w
			run := func(ops, seed int64, opt repOptions) (*repResult, error) {
				return runEngineRep(w, ops, seed, opt)
			}
			return run, w.opsPerSec, nil
		}
	}
	return nil, 0, fmt.Errorf("unknown workload %q", name)
}

// roundOps keeps op counts a multiple of 1000 (and at least 1000) so client
// shares and snapshot marks divide evenly.
func roundOps(f float64) int64 {
	return max(1000, int64(f/1000+0.5)*1000)
}

// reportFile names the full report of a run inside the output directory.
func reportFile(workload string, traced bool) string {
	if traced {
		return workload + "-layers.json"
	}
	return workload + "-report.json"
}

// runWorkload performs one run: a discarded warm-up, then either the timed
// untraced repetitions (end-to-end metrics) or one untraced and one traced
// repetition plus the layer probes (per-layer metrics).
func runWorkload(cfg runConfig) (*report, error) {
	run, rate, err := lookupWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	// A fixed op count per repetition, from --seconds alone: the simulated
	// statistics repeat exactly and host time is what varies.
	ops := roundOps(rate * cfg.seconds / timedReps)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	rep := &report{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced,
		OpsPerRep: ops, Env: currentEnv(), Metrics: make(map[string]reading),
	}

	// The warm-up fills bufpool's chunk cache and faults the heap in; first
	// repetitions were 10-35 % slower without it.
	warm, err := freshRep(run, roundOps(float64(ops)*warmupShare), cfg, repOptions{})
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	rep.Checks = append(rep.Checks, prefixed("warm-up", warm.checks)...)

	if cfg.traced {
		err = runTraced(cfg, run, ops, rep)
	} else {
		err = runUntraced(cfg, run, ops, rep)
	}
	if err != nil {
		return nil, err
	}
	rep.Correct = len(rep.Checks) == 0 && rep.Failed == 0
	if err := writeJSON(filepath.Join(cfg.outDir, reportFile(cfg.workload, cfg.traced)), rep); err != nil {
		return nil, err
	}
	return rep, nil
}

func prefixed(prefix string, msgs []string) []string {
	out := make([]string, len(msgs))
	for i, m := range msgs {
		out[i] = prefix + ": " + m
	}
	return out
}

// freshRep runs one repetition from a collected heap returned to the OS:
// peak RSS and GC timing otherwise depend on what the previous repetition
// left behind.
func freshRep(run repRunner, ops int64, cfg runConfig, opt repOptions) (*repResult, error) {
	debug.FreeOSMemory()
	opt.tiny = cfg.tiny
	return run(ops, cfg.seed, opt)
}

func runUntraced(cfg runConfig, run repRunner, ops int64, rep *report) error {
	var reps []*repResult
	for i := 0; i < timedReps; i++ {
		r, err := freshRep(run, ops, cfg, repOptions{})
		if err != nil {
			return fmt.Errorf("repetition %d: %w", i+1, err)
		}
		reps = append(reps, r)
		rep.Attempted += r.ops
		rep.Failed += r.failed
		rep.Checks = append(rep.Checks, prefixed(fmt.Sprintf("repetition %d", i+1), r.checks)...)
	}
	rep.SimDigest = reps[0].digest()
	for i, r := range reps[1:] {
		if d := r.digest(); d != rep.SimDigest {
			rep.Checks = append(rep.Checks, fmt.Sprintf("sim_digest of repetition %d is %s, repetition 1 gave %s", i+2, d, rep.SimDigest))
		}
	}
	collect := func(f func(*repResult) float64) []float64 {
		vals := make([]float64, len(reps))
		for i, r := range reps {
			vals[i] = f(r)
		}
		return vals
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	values := map[string][]float64{
		"setup_s":            collect(func(r *repResult) float64 { return r.setupS }),
		"host_ops_per_s":     collect(func(r *repResult) float64 { return float64(r.ops) / r.runS }),
		"host_cpu_us_per_op": collect(func(r *repResult) float64 { return r.cpuS * 1e6 / float64(r.ops) }),
		"host_recover_ms":    collect(func(r *repResult) float64 { return r.recoverMs }),
		"host_total_s":       collect(func(r *repResult) float64 { return r.totalS }),
		"host_peak_rss_mb":   {rss},
	}
	for _, m := range endToEnd {
		rep.Metrics[m.Name] = summarize(m.Unit, values[m.Name])
	}
	return nil
}

func runTraced(cfg runConfig, run repRunner, ops int64, rep *report) error {
	plain, err := freshRep(run, ops, cfg, repOptions{})
	if err != nil {
		return fmt.Errorf("untraced repetition: %w", err)
	}
	rec := newRecorder()
	prof := &profiler{path: filepath.Join(cfg.outDir, cfg.workload+".pprof")}
	traced, err := freshRep(run, ops, cfg, repOptions{rec: rec, prof: prof})
	if err != nil {
		return fmt.Errorf("traced repetition: %w", err)
	}
	if prof.err != nil {
		return fmt.Errorf("cpu profile: %w", prof.err)
	}
	if err := rec.write(filepath.Join(cfg.outDir, cfg.workload+"-trace.json"), cfg.workload, cfg.seed); err != nil {
		return err
	}
	rep.Attempted = plain.ops + traced.ops
	rep.Failed = plain.failed + traced.failed
	rep.Checks = append(rep.Checks, prefixed("untraced repetition", plain.checks)...)
	rep.Checks = append(rep.Checks, prefixed("traced repetition", traced.checks)...)
	rep.SimDigest = plain.digest()
	if d := traced.digest(); d != rep.SimDigest {
		rep.Checks = append(rep.Checks, fmt.Sprintf("traced sim_digest %s differs from untraced %s", d, rep.SimDigest))
	}

	values := make(map[string]float64, 128)
	for _, m := range simCounts {
		values[m.Name] = plain.counts[m.Name]
	}
	sort.Float64s(plain.slicesMs)
	rep.Slices = len(plain.slicesMs)
	values["runtime.allocs_per_op"] = plain.allocsPerOp
	values["runtime.alloc_bytes_per_op"] = plain.allocBytesPerOp
	values["runtime.gc_cycles"] = plain.gcCycles
	values["runtime.gc_pause_ms"] = plain.gcPauseMs
	values["sim.virt_s_per_host_s"] = plain.virtRunS / plain.runS
	values["sim.slice_host_p50_ms"] = quantile(plain.slicesMs, 0.5)
	values["sim.slice_host_p99_ms"] = quantile(plain.slicesMs, 0.99)

	for _, prefix := range []string{"core", "baseline"} {
		values[prefix+".wal_append_calls"] = float64(rec.total(prefix + ".wal_append").calls)
		values[prefix+".wal_append_host_ms"] = rec.hostMs(prefix + ".wal_append")
		values[prefix+".wal_sync_host_ms"] = rec.hostMs(prefix + ".wal_sync")
		values[prefix+".snapshot_write_host_ms"] = rec.hostMs(prefix + ".snapshot_write")
		values[prefix+".recover_host_ms"] = rec.hostMs(prefix + ".recover")
	}
	fdpMs := rec.hostMs("fdp.write") + rec.hostMs("fdp.read")
	values["fdp.write_calls"] = float64(rec.total("fdp.write").calls)
	values["fdp.write_host_ms"] = rec.hostMs("fdp.write")
	values["fdp.read_host_ms"] = rec.hostMs("fdp.read")
	values["fdp.host_share"] = fdpMs / rec.hostMs("rep")
	// Only dev-churn issues device commands itself; on the engine workloads
	// the command spans do not exist and the two metrics below read 0.
	if cmdMs := rec.hostMs("ssd.write_pages"); cmdMs > 0 {
		values["ssd.write_self_host_ms"] = cmdMs - rec.hostMs("fdp.write")
	}
	if rec.total("core.wal_append").calls+rec.total("baseline.wal_append").calls > 0 {
		values["imdb.self_host_ms"] = rec.hostMs("run") - float64(rec.phaseCover["run"])/1e6
	}
	values["bench.trace_overhead_ratio"] = (float64(traced.ops) / traced.runS) / (float64(plain.ops) / plain.runS)

	probeScale := cfg.seconds / defaultSeconds
	if probeScale > 1 {
		probeScale = 1
	}
	probed, err := runProbes(probeScale)
	if err != nil {
		return err
	}
	for name, v := range probed {
		values[name] = v
	}
	for _, m := range perLayer() {
		rep.Metrics[m.Name] = reading{Value: values[m.Name], Unit: m.Unit, Q1: values[m.Name], Q3: values[m.Name], N: 1}
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printReport writes the human-readable table to w (standard error, so the
// contract line stays the last line of standard output).
func printReport(w *os.File, r *report) {
	fmt.Fprintf(w, "%s seed=%d seconds=%g traced=%v ops/rep=%d sim_digest=%s correct=%v attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.OpsPerRep, r.SimDigest, r.Correct, r.Attempted, r.Failed)
	for _, c := range r.Checks {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", c)
	}
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		if m.N > 1 {
			fmt.Fprintf(w, "  %-34s %14.6g %-6s q1=%.6g q3=%.6g n=%d readings=%v\n", name, m.Value, m.Unit, m.Q1, m.Q3, m.N, m.Readings)
		} else {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", name, m.Value, m.Unit)
		}
	}
}

func main() {
	var cfg runConfig
	var trace int
	var selfcheck, spec bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run in this process (default: the whole set, one child process each)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "host seconds the timed repetitions are sized to take together")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics from untraced repetitions; 1: per-layer metrics, spans, probes and a CPU profile")
	flag.StringVar(&cfg.outDir, "out", filepath.Join("bench", "out"), "directory for reports, traces and profiles (overwritten)")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run the set twice in alternating order and compare the medians against the bounds")
	flag.BoolVar(&spec, "spec", false, "print BENCHMARK.json as the metric and workload tables define it, and exit")
	flag.Parse()
	cfg.traced = trace != 0
	if flag.NArg() > 0 || cfg.seconds <= 0 || trace < 0 || trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: bench [--workload name] [--seed n] [--seconds s] [--trace 0|1] [--selfcheck] [--spec]")
		os.Exit(2)
	}
	// Two cores here: one runs the simulation's baton, the other the
	// garbage collector. More than four would only add scheduler noise.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	var err error
	switch {
	case spec:
		err = json.NewEncoder(os.Stdout).Encode(benchmarkSpec())
	case selfcheck:
		err = runSelfcheck(cfg)
	case cfg.workload == "":
		_, err = runSet(cfg, workloadNames())
	default:
		var rep *report
		if rep, err = runWorkload(cfg); err == nil {
			printReport(os.Stderr, rep)
			if err = json.NewEncoder(os.Stdout).Encode(rep.contract()); err == nil && !rep.Correct {
				os.Exit(1)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloadSpecs))
	for i, w := range workloadSpecs {
		names[i] = w.Name
	}
	return names
}

// runSet runs each named workload in a fresh child process of this binary,
// so VmHWM and the heap start clean, and prints each child's contract line
// under the workload's name. It returns the children's full reports.
func runSet(cfg runConfig, names []string) (map[string]*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	reports := make(map[string]*report, len(names))
	for _, name := range names {
		args := []string{
			"--workload", name,
			"--seed", strconv.FormatInt(cfg.seed, 10),
			"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
			"--trace", map[bool]string{false: "0", true: "1"}[cfg.traced],
			"--out", cfg.outDir,
		}
		start := time.Now()
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		fmt.Printf("{\"workload\":%q,\"wall_s\":%.1f,\"result\":%s}\n", name, time.Since(start).Seconds(), lines[len(lines)-1])
		file := reportFile(name, cfg.traced)
		data, err := os.ReadFile(filepath.Join(cfg.outDir, file))
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("parse %s: %w", file, err)
		}
		reports[name] = &rep
	}
	return reports, nil
}

// runSelfcheck runs two complete untraced sets of the same code, the second
// in reverse workload order, and fails if any end-to-end median of the
// second is worse than the first's by more than the metric's bound, or if a
// sim_digest changed.
func runSelfcheck(cfg runConfig) error {
	cfg.traced = false
	names := workloadNames()
	first, err := runSet(cfg, names)
	if err != nil {
		return err
	}
	reversed := make([]string, len(names))
	for i, n := range names {
		reversed[len(names)-1-i] = n
	}
	second, err := runSet(cfg, reversed)
	if err != nil {
		return err
	}
	bad := 0
	fmt.Printf("%-28s %-20s %14s %14s %8s %7s\n", "workload", "metric", "set 1 median", "set 2 median", "gap", "bound")
	for _, name := range names {
		a, b := first[name], second[name]
		if a.SimDigest != b.SimDigest {
			fmt.Printf("%-28s sim_digest %s != %s\n", name, a.SimDigest, b.SimDigest)
			bad++
		}
		for _, m := range endToEnd {
			va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			gap := (vb - va) / va // positive: set 2 reads higher
			worse := gap
			if m.Better == higher {
				worse = -gap
			}
			mark := ""
			if worse > m.Bound {
				mark = "  EXCEEDS BOUND"
				bad++
			}
			fmt.Printf("%-28s %-20s %14.6g %14.6g %+7.2f%% %6.0f%%%s\n", name, m.Name, va, vb, 100*gap, 100*m.Bound, mark)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d comparison(s) outside their bounds", bad)
	}
	return nil
}
