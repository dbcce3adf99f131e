// Seeded crash-recovery corpus for the SlimIO backend, deduplicated onto
// the shared model-checker harness (internal/crashmc): the workload shape,
// stack construction, power-cut replay, and prefix check that used to live
// here are now the checker's, and every seed is additionally judged by the
// full durability oracle (ack, snapshot, and damage-report rules) instead
// of the WAL-prefix check alone. Systematic lattice enumeration lives in
// internal/crashmc's own tests; this corpus keeps a broad spread of
// seed-derived single cuts running against this package.
package core_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/slimio/slimio/internal/crashmc"
)

var update = flag.Bool("update", false, "rewrite testdata/crash_seeds.golden from this run instead of comparing")

// goldenSeeds is how many leading seeds are pinned to the committed golden
// (the -short corpus, so every test mode checks it).
const goldenSeeds = 12

// TestSeededCrashHarnessSlimIO sweeps the seed corpus. Each seed derives
// its own workload and power-cut instant; the aggregate must include torn
// pages (cuts landing mid-program) and lossy cuts (an unsynced tail that
// recovery correctly drops), or the harness is not exercising the window
// it claims to.
func TestSeededCrashHarnessSlimIO(t *testing.T) {
	seeds := int64(55)
	if testing.Short() {
		seeds = 12
	}
	var torn, lossy int64
	var golden strings.Builder
	for seed := int64(1); seed <= seeds; seed++ {
		res, v, err := crashmc.RunSeed(crashmc.SlimIO, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if v != nil {
			t.Errorf("seed %d: oracle violation: %v", seed, v)
		}
		if seed <= goldenSeeds {
			fmt.Fprintf(&golden, "seed=%d cut=%d appended=%d acked=%d recovered=%d digest=%016x faults=%+v\n",
				seed, int64(res.Cut), res.Appended, res.Acked, res.Recovered, res.Digest, res.Faults)
		}
		torn += res.Faults.TornPrograms
		if res.Recovered < res.Appended {
			lossy++
		}
	}
	if torn == 0 {
		t.Error("no seed tore a page: every cut missed the write window")
	}
	if lossy == 0 {
		t.Error("no seed lost an unsynced tail: every cut landed after quiescence")
	}

	// Run-to-run determinism (below) cannot see a change that shifts every
	// cut the same way in every run; the committed outcomes can.
	const path = "testdata/crash_seeds.golden"
	if *update {
		if err := os.WriteFile(path, []byte(golden.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if golden.String() != string(want) {
		t.Errorf("%s differs from this run (regenerate with -update only for an intended behaviour change):\n--- got\n%s--- want\n%s",
			path, golden.String(), want)
	}
}

// TestSeededCrashDeterminismSlimIO: the same seed must reproduce the same
// cut, the same recovery, and the same fault counts, bit for bit.
func TestSeededCrashDeterminismSlimIO(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		a, av, err := crashmc.RunSeed(crashmc.SlimIO, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, bv, err := crashmc.RunSeed(crashmc.SlimIO, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if a != b {
			t.Fatalf("seed %d not deterministic:\n first %+v\nsecond %+v", seed, a, b)
		}
		if (av == nil) != (bv == nil) {
			t.Fatalf("seed %d: oracle verdict not deterministic: %v vs %v", seed, av, bv)
		}
	}
}
