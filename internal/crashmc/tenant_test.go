package crashmc

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/slimio/slimio/internal/exp"
)

var update = flag.Bool("update", false, "rewrite testdata/tenant_seeds_*.golden and testdata/repro/ack-on-append-*.json from this run instead of comparing")

// goldenSeeds is how many leading 2-tenant seeds are pinned to the committed
// golden (the -short corpus, so every test mode checks it).
const goldenSeeds = 4

// noteGolden appends one seed's per-tenant outcomes in the golden's format.
func noteGolden(b *strings.Builder, seed int64, res TenantSeedResult) {
	fmt.Fprintf(b, "seed=%d cut=%d", seed, int64(res.Cut))
	for i, u := range res.Tenants {
		fmt.Fprintf(b, " tenant%d={appended=%d acked=%d recovered=%d digest=%016x}",
			i, u.Appended, u.Acked, u.Recovered, u.Digest)
	}
	b.WriteByte('\n')
}

// checkGolden pins got to testdata/tenant_seeds_<placement>.golden: the
// determinism test below cannot see a change that shifts every cut the same
// way in every run; the committed outcomes can.
func checkGolden(t *testing.T, kind exp.BackendKind, got string) {
	t.Helper()
	path := "testdata/tenant_seeds_" + exp.PlacementLabel(kind) + ".golden"
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
// every tenant independently recoverable, with each judged by the full
// durability oracle against its own client-visible history.
func TestTenantSeededCrashFDP(t *testing.T) {
	seeds := int64(10)
	if testing.Short() {
		seeds = 4
	}
	var appended, lossy int
	var golden strings.Builder
	for seed := int64(1); seed <= seeds; seed++ {
		res, vs, err := RunTenantSeed(exp.SlimIOFDP, seed, 2)
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
			appended += u.Appended
			if u.Recovered < u.Appended {
				lossy++
			}
			if u.Recovered < u.Acked {
				// checkOracle flags this too, but assert the headline
				// per-tenant durability bound explicitly.
				t.Errorf("seed %d tenant %d: recovered %d < acked %d", seed, i, u.Recovered, u.Acked)
			}
		}
	}
	if appended == 0 {
		t.Fatal("no tenant appended anything before any cut; harness is inert")
	}
	if lossy == 0 {
		t.Error("no cut ever lost an unsynced tail: every cut landed after quiescence")
	}
	checkGolden(t, exp.SlimIOFDP, golden.String())
}

// The shared-PID baseline runs the identical SlimIO write path, so its
// durability contract is the same even though its placement mixes lifetimes.
func TestTenantSeededCrashSharedBaseline(t *testing.T) {
	var golden strings.Builder
	for seed := int64(1); seed <= goldenSeeds; seed++ {
		res, vs, err := RunTenantSeed(exp.SlimIOConv, seed, 2)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, v := range vs {
			t.Errorf("seed %d: oracle violation: %v", seed, v)
		}
		noteGolden(&golden, seed, res)
	}
	checkGolden(t, exp.SlimIOConv, golden.String())
}

// Same seed, same cut, same per-tenant recovery — bit for bit.
func TestTenantSeededCrashDeterminism(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		a, av, err := RunTenantSeed(exp.SlimIOFDP, seed, 2)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, bv, err := RunTenantSeed(exp.SlimIOFDP, seed, 2)
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
