// Seeded crash-recovery corpus for the baseline kernel-path backend. The
// sweep itself is crashmc's (SweepSeeds, ReplaySeeds), shared with the
// SlimIO corpus; this file pins its outcomes for this package's target.
// Systematic lattice enumeration lives in internal/crashmc's own tests.
package baseline_test

import (
	"flag"
	"os"
	"testing"

	"github.com/slimio/slimio/internal/crashmc"
)

var update = flag.Bool("update", false, "rewrite testdata/crash_seeds.golden from this run instead of comparing")

// TestSeededCrashHarnessBaseline sweeps the seed corpus: every recovery
// must be admitted by the model, some cuts must tear a page mid-flush and
// some must drop a dirty page-cache tail, and the leading seeds' outcomes
// must match the golden.
func TestSeededCrashHarnessBaseline(t *testing.T) {
	seeds := int64(crashmc.CorpusSeeds)
	if testing.Short() {
		seeds = crashmc.CorpusShortSeeds
	}
	c, err := crashmc.SweepSeeds(crashmc.Baseline, seeds)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range c.Problems {
		t.Error(p)
	}

	const path = "testdata/crash_seeds.golden"
	if *update {
		if err := os.WriteFile(path, []byte(c.Golden), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Golden != string(want) {
		t.Errorf("%s differs from this run (regenerate with -update only for an intended behaviour change):\n--- got\n%s--- want\n%s",
			path, c.Golden, want)
	}
}

// TestSeededCrashDeterminismBaseline: the same seed must reproduce the
// same cut, the same recovery, and the same fault counts, bit for bit.
func TestSeededCrashDeterminismBaseline(t *testing.T) {
	if err := crashmc.ReplaySeeds(crashmc.Baseline, 5); err != nil {
		t.Fatal(err)
	}
}
