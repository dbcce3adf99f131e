package main

import "sort"

// metricSpec declares one metric of BENCHMARK.json. Bound is set on
// end-to-end metrics only.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd lists what someone waiting for the simulator sees. Every one is
// read from the host (wall clock, getrusage, VmHWM); none comes from the
// simulation clock. Bounds are at least three times the spread of ten runs
// with different seeds on the 2-core sandbox (bench/README.md): whole runs of
// the memory-bound workloads differ by 7-8 % there, so the timings carry the
// largest bound the contract allows.
var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"host_ops_per_s", "1/s", higher, 0.25},
	{"host_cpu_us_per_op", "us", lower, 0.25},
	{"host_recover_ms", "ms", lower, 0.25},
	{"host_total_s", "s", lower, 0.25},
	{"host_peak_rss_mb", "MiB", lower, 0.12},
}

// simCounts are the deterministic counts and simulated statistics read from
// the layers' public Stats getters after an untraced repetition. They repeat
// exactly for a seed and make up sim_digest.
var simCounts = []metricSpec{
	{Name: "workload.ops", Unit: "count", Better: higher},
	{Name: "workload.failed_ops", Unit: "count", Better: lower},
	{Name: "imdb.virt_ops_per_s", Unit: "1/s", Better: higher},
	{Name: "imdb.virt_set_p50_us", Unit: "us", Better: lower},
	{Name: "imdb.virt_set_p999_us", Unit: "us", Better: lower},
	{Name: "imdb.virt_get_p999_us", Unit: "us", Better: lower},
	{Name: "imdb.virt_snapshot_ms", Unit: "ms", Better: lower},
	{Name: "imdb.virt_recovery_ms", Unit: "ms", Better: lower},
	{Name: "imdb.mem_peak_ratio", Unit: "ratio", Better: lower},
	{Name: "imdb.snapshots", Unit: "count", Better: higher},
	{Name: "imdb.wal_syncs", Unit: "count", Better: lower},
	{Name: "imdb.wal_stalls", Unit: "count", Better: lower},
	{Name: "imdb.cow_copies", Unit: "count", Better: lower},
	{Name: "ssd.waf", Unit: "ratio", Better: lower},
	{Name: "ssd.host_pages", Unit: "count", Better: lower},
	{Name: "ssd.retries", Unit: "count", Better: lower},
	{Name: "fdp.rus_reclaimed", Unit: "count", Better: lower},
	{Name: "fdp.gc_copied_pages", Unit: "count", Better: lower},
	{Name: "nand.programs", Unit: "count", Better: lower},
	{Name: "nand.reads", Unit: "count", Better: lower},
	{Name: "nand.erases", Unit: "count", Better: lower},
	{Name: "nand.die_busy_frac", Unit: "ratio", Better: lower},
	{Name: "uring.submitted", Unit: "count", Better: lower},
	{Name: "uring.syscalls", Unit: "count", Better: lower},
	{Name: "kernelio.syscalls", Unit: "count", Better: lower},
	{Name: "kernelio.commits", Unit: "count", Better: lower},
	{Name: "kernelio.writeback_pages", Unit: "count", Better: lower},
	{Name: "kernelio.throttle_stalls", Unit: "count", Better: lower},
	{Name: "kernelio.cache_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "snapshot.raw_mb", Unit: "MiB", Better: lower},
	{Name: "snapshot.compress_ratio", Unit: "ratio", Better: lower},
	{Name: "bufpool.allocated_segs", Unit: "count", Better: lower},
	{Name: "bufpool.inflight_end", Unit: "count", Better: lower},
}

// hostLayer are host-side readings of the untraced repetition that are
// reported but not gated.
var hostLayer = []metricSpec{
	{Name: "runtime.allocs_per_op", Unit: "count", Better: lower},
	{Name: "runtime.alloc_bytes_per_op", Unit: "B", Better: lower},
	{Name: "runtime.gc_cycles", Unit: "count", Better: lower},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: lower},
	{Name: "sim.virt_s_per_host_s", Unit: "ratio", Better: higher},
	{Name: "sim.slice_host_p50_ms", Unit: "ms", Better: lower},
	{Name: "sim.slice_host_p99_ms", Unit: "ms", Better: lower},
}

// spanLayer are derived from the traced repetition's spans.
var spanLayer = []metricSpec{
	{Name: "core.wal_append_calls", Unit: "count", Better: lower},
	{Name: "core.wal_append_host_ms", Unit: "ms", Better: lower},
	{Name: "core.wal_sync_host_ms", Unit: "ms", Better: lower},
	{Name: "core.snapshot_write_host_ms", Unit: "ms", Better: lower},
	{Name: "core.recover_host_ms", Unit: "ms", Better: lower},
	{Name: "baseline.wal_append_calls", Unit: "count", Better: lower},
	{Name: "baseline.wal_append_host_ms", Unit: "ms", Better: lower},
	{Name: "baseline.wal_sync_host_ms", Unit: "ms", Better: lower},
	{Name: "baseline.snapshot_write_host_ms", Unit: "ms", Better: lower},
	{Name: "baseline.recover_host_ms", Unit: "ms", Better: lower},
	{Name: "fdp.write_calls", Unit: "count", Better: lower},
	{Name: "fdp.write_host_ms", Unit: "ms", Better: lower},
	{Name: "fdp.read_host_ms", Unit: "ms", Better: lower},
	{Name: "fdp.host_share", Unit: "ratio", Better: lower},
	{Name: "ssd.write_self_host_ms", Unit: "ms", Better: lower},
	{Name: "imdb.self_host_ms", Unit: "ms", Better: lower},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: higher},
}

// perLayer is every per-layer metric: counts, host readings, span totals
// and, per probe, <name>_ns and <name>_allocs.
func perLayer() []metricSpec {
	out := make([]metricSpec, 0, 128)
	out = append(out, simCounts...)
	out = append(out, hostLayer...)
	out = append(out, spanLayer...)
	for _, p := range probes {
		out = append(out,
			metricSpec{Name: p.name + "_ns", Unit: "ns", Better: lower},
			metricSpec{Name: p.name + "_allocs", Unit: "count", Better: lower})
	}
	return out
}

// workloadSpec names a workload and records why it is in the set.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadSpecs = []workloadSpec{
	{"set-always-slimio", "50-client 4 KiB SETs, Always-Log on SlimIO/FDP: every op crosses wal, core, uring, ssd, fdp, nand and several process switches; kernelio and baseline do nothing"},
	{"set-periodical-baseline", "the same SETs, Periodical-Log on F2FS over a conventional SSD: kernelio page cache, journal, writeback and baseline do the work; core and uring do nothing"},
	{"ycsba-snap-slimio", "YCSB-A zipfian 50/50 GET:SET on a preloaded store with snapshots overlapping traffic: host time goes to flate, store copy-on-write and the Snapshot-Path, GETs touch only the store"},
	{"dev-churn", "no engine: random 1-, 8- and 64-page overwrites of an 85 % full FDP device, then a full read-back: fdp reclaim, GC migration and nand do all the work"},
	{"set-always-slimio-observed", "set-always-slimio with vtrace and telemetry switched on: prices the program's own instrumentation against the unobserved workload"},
}

// benchmarkFile is the content of BENCHMARK.json. Per-layer metrics carry no
// bound, so theirs is omitted.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// defaultSeconds is BENCHMARK.json's run_seconds: the host time the timed
// repetitions of one run are sized to take together.
const defaultSeconds = 15

func benchmarkSpec() benchmarkFile {
	return benchmarkFile{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
}

// sortedKeys returns m's keys in ascending order, for every site that prints
// or hashes a map.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
