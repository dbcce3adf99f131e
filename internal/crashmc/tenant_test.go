package crashmc

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/slimio/slimio/internal/exp"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden and testdata/repro/ack-on-append-*.json from this run instead of comparing")

// goldenSeeds is how many leading 2-tenant seeds are pinned to the committed
// golden (the -short corpus, so every test mode checks it).
const goldenSeeds = 4

// noteGolden appends one seed's per-tenant outcomes in the golden's format.
func noteGolden(b *strings.Builder, seed int64, res SeedResult) {
	fmt.Fprintf(b, "seed=%d cut=%d", seed, int64(res.Cut))
	for i, u := range res.Tenants {
		fmt.Fprintf(b, " tenant%d={ops=%d acked=%d recovered=%d digest=%016x}",
			i, u.Ops, u.Acked, u.Recovered, u.Digest)
	}
	b.WriteByte('\n')
}

// checkGolden pins got to testdata/<name>.golden: the determinism tests
// cannot see a change that shifts every cut the same way in every run; the
// committed outcomes can.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := "testdata/" + name + ".golden"
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
		t.Errorf("%s differs from this run (regenerate with -update only for an intended behaviour change):\n--- got\n%s--- want\n%s",
			path, got, want)
	}
}

// Ten-seed smoke over the 2-tenant FDP stack: a shared power cut must leave
// every tenant independently recoverable, with each judged by the model of
// its own client-visible calls.
func TestTenantSeededCrashFDP(t *testing.T) {
	seeds := int64(10)
	if testing.Short() {
		seeds = 4
	}
	var ops, lossy int
	var golden strings.Builder
	for seed := int64(1); seed <= seeds; seed++ {
		res, vs, err := RunSeed(exp.SlimIOFDP, seed, 2)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if seed <= goldenSeeds {
			noteGolden(&golden, seed, res)
		}
		for _, v := range vs {
			t.Errorf("seed %d: oracle violation: %v", seed, v)
		}
		if len(res.Tenants) != 2 {
			t.Fatalf("seed %d: %d tenant outcomes, want 2", seed, len(res.Tenants))
		}
		for i, u := range res.Tenants {
			ops += u.Ops
			if u.Recovered < u.Ops {
				lossy++
			}
			if u.Recovered < u.Acked {
				// The model flags this too, but assert the headline
				// per-tenant durability bound explicitly.
				t.Errorf("seed %d tenant %d: recovered %d < acked %d", seed, i, u.Recovered, u.Acked)
			}
		}
	}
	if ops == 0 {
		t.Fatal("no tenant applied an op before any cut; harness is inert")
	}
	if lossy == 0 {
		t.Error("no cut ever lost an unsynced tail: every cut landed after quiescence")
	}
	checkGolden(t, "tenant_seeds_"+exp.PlacementLabel(exp.SlimIOFDP), golden.String())
}

// The shared-PID baseline runs the identical SlimIO write path, so its
// durability contract is the same even though its placement mixes lifetimes.
func TestTenantSeededCrashSharedBaseline(t *testing.T) {
	var golden strings.Builder
	for seed := int64(1); seed <= goldenSeeds; seed++ {
		res, vs, err := RunSeed(exp.SlimIOConv, seed, 2)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, v := range vs {
			t.Errorf("seed %d: oracle violation: %v", seed, v)
		}
		noteGolden(&golden, seed, res)
	}
	checkGolden(t, "tenant_seeds_"+exp.PlacementLabel(exp.SlimIOConv), golden.String())
}

// Same seed, same cut, same per-tenant recovery — bit for bit.
func TestTenantSeededCrashDeterminism(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		a, av, err := RunSeed(exp.SlimIOFDP, seed, 2)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, bv, err := RunSeed(exp.SlimIOFDP, seed, 2)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if a.Cut != b.Cut || len(a.Tenants) != len(b.Tenants) {
			t.Fatalf("seed %d not deterministic:\n first %+v\nsecond %+v", seed, a, b)
		}
		for i := range a.Tenants {
			if a.Tenants[i] != b.Tenants[i] {
				t.Fatalf("seed %d tenant %d not deterministic:\n first %+v\nsecond %+v",
					seed, i, a.Tenants[i], b.Tenants[i])
			}
		}
		if len(av) != len(bv) {
			t.Fatalf("seed %d: oracle verdicts not deterministic: %v vs %v", seed, av, bv)
		}
	}
}
