package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

// smokeRun runs one workload at smoke scale: 1000 ops per repetition on the
// tiny devices.
func smokeRun(t *testing.T, workload string, seed int64, traced bool, dir string) *report {
	t.Helper()
	rep, err := runWorkload(runConfig{workload: workload, seed: seed, seconds: 0.01, traced: traced, outDir: dir, tiny: true})
	if err != nil {
		t.Fatalf("%s (traced=%v): %v", workload, traced, err)
	}
	if !rep.Correct {
		t.Errorf("%s (traced=%v) not correct: failed=%d checks=%v", workload, traced, rep.Failed, rep.Checks)
	}
	return rep
}

func specNames(ms []metricSpec) []string {
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name
	}
	sort.Strings(names)
	return names
}

// TestBenchmarkJSONMatchesBinary pins BENCHMARK.json to the tables the
// binary emits from, and checks the contract's limits on it.
func TestBenchmarkJSONMatchesBinary(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk benchmarkFile
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	want := benchmarkSpec()
	if !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from `go run ./bench -spec`")
	}
	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, contract allows 2-8", n)
	}
	if n := len(want.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, contract allows 1-16", n)
	}
	if n := len(want.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1-128", n)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q outside the contract's alphabet", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q outside the contract's alphabet", name, unit)
		}
		if better != "" && better != higher && better != lower {
			t.Errorf("%s: better = %q", name, better)
		}
	}
	for _, w := range want.Workloads {
		check(w.Name, "", "")
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	haveSetup := false
	for _, m := range want.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Unit == "" || m.Better == "" || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit=%q better=%q bound=%v", m.Name, m.Unit, m.Better, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == lower {
			haveSetup = true
		}
	}
	if !haveSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range want.PerLayer {
		check(m.Name, m.Unit, m.Better)
	}
}

// TestEveryWorkloadEmitsEveryEndToEndMetric runs each workload untraced and
// compares the emitted names with the table; two workloads run twice more
// to show that a seed fixes the simulation and another seed changes it.
func TestEveryWorkloadEmitsEveryEndToEndMetric(t *testing.T) {
	dir := t.TempDir()
	want := specNames(endToEnd)
	first := map[string]*report{}
	for _, w := range workloadSpecs {
		rep := smokeRun(t, w.Name, 1, false, dir)
		first[w.Name] = rep
		if got := sortedKeys(rep.Metrics); !reflect.DeepEqual(got, want) {
			t.Errorf("%s emitted %v, want %v", w.Name, got, want)
		}
		for name, m := range rep.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, end-to-end metrics are never 0", w.Name, name, m.Value)
			}
		}
		cl := rep.contract()
		if len(cl.Metrics) != len(want) || cl.Attempted < 1 {
			t.Errorf("%s: contract line has %d metrics, attempted %d", w.Name, len(cl.Metrics), cl.Attempted)
		}
	}
	for _, name := range []string{"set-periodical-baseline", "dev-churn"} {
		a, b := first[name], smokeRun(t, name, 1, false, dir)
		if a.SimDigest != b.SimDigest {
			t.Errorf("%s: seed 1 gave sim_digest %s then %s", name, a.SimDigest, b.SimDigest)
		}
		if c := smokeRun(t, name, 2, false, dir); c.SimDigest == a.SimDigest {
			t.Errorf("%s: seed 2 repeated seed 1's sim_digest %s", name, a.SimDigest)
		}
	}
}

// TestTracedRunEmitsEveryPerLayerMetric runs an engine workload on each
// backend and dev-churn traced, and checks the names, the trace file's
// structure and that the profile was written.
func TestTracedRunEmitsEveryPerLayerMetric(t *testing.T) {
	dir := t.TempDir()
	want := specNames(perLayer())
	for _, name := range []string{"set-always-slimio-observed", "set-periodical-baseline", "dev-churn"} {
		rep := smokeRun(t, name, 1, true, dir)
		if got := sortedKeys(rep.Metrics); !reflect.DeepEqual(got, want) {
			t.Errorf("%s emitted %d per-layer metrics, want %d", name, len(got), len(want))
		}
		if rep.Metrics["fdp.write_calls"].Value <= 0 || rep.Metrics["bench.trace_overhead_ratio"].Value <= 0 {
			t.Errorf("%s: fdp.write_calls=%v bench.trace_overhead_ratio=%v", name,
				rep.Metrics["fdp.write_calls"].Value, rep.Metrics["bench.trace_overhead_ratio"].Value)
		}
		data, err := os.ReadFile(filepath.Join(dir, name+"-trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := validateTrace(data); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if st, err := os.Stat(filepath.Join(dir, name+".pprof")); err != nil || st.Size() == 0 {
			t.Errorf("%s: CPU profile missing or empty (%v)", name, err)
		}
	}
	bad := []byte(`{"spans":[{"id":1,"parent":0,"host_start_ns":0,"host_end_ns":5},{"id":2,"parent":1,"host_start_ns":3,"host_end_ns":9}]}`)
	if validateTrace(bad) == nil {
		t.Error("validateTrace accepted a child that outlasts its parent")
	}
}
