package crashmc

import (
	"fmt"
	"reflect"
	"strings"
)

// CorpusSeeds and CorpusShortSeeds are how many seeds a single-engine corpus
// sweep runs in full and under -short; the short corpus is the one pinned to
// a committed golden, so every test mode checks it.
const (
	CorpusSeeds      = 55
	CorpusShortSeeds = 12
)

// Corpus is what SweepSeeds found on one target: one outcome line per seed
// up to CorpusShortSeeds for a committed golden (a change that shifts every
// cut the same way in every run is invisible to a replay, but not to
// committed outcomes), and the problems: each seed whose recovery was not
// admitted, and a sweep that never tore a page or never lost an op.
type Corpus struct {
	Golden   string
	Problems []string
}

// SweepSeeds runs seeds 1..seeds on tgt, each with its own workload and cut,
// judged by the oracle. The aggregate must include torn pages (cuts landing
// mid-program) and lossy cuts (applied ops that recovery correctly drops),
// or the corpus is not exercising the window it claims to.
func SweepSeeds(tgt Target, seeds int64) (Corpus, error) {
	var c Corpus
	var golden strings.Builder
	var torn, lossy int64
	for seed := int64(1); seed <= seeds; seed++ {
		res, vs, err := RunSeed(tgt, seed, 1)
		if err != nil {
			return Corpus{}, fmt.Errorf("seed %d: %w", seed, err)
		}
		for _, v := range vs {
			c.Problems = append(c.Problems, fmt.Sprintf("seed %d: oracle violation: %v", seed, v))
		}
		u := res.Tenants[0]
		if seed <= CorpusShortSeeds {
			fmt.Fprintf(&golden, "seed=%d cut=%d ops=%d acked=%d recovered=%d digest=%016x faults=%+v\n",
				seed, int64(res.Cut), u.Ops, u.Acked, u.Recovered, u.Digest, res.Faults)
		}
		torn += res.Faults.TornPrograms
		if u.Recovered < u.Ops {
			lossy++
		}
	}
	if torn == 0 {
		c.Problems = append(c.Problems, "no seed tore a page: every cut missed the write window")
	}
	if lossy == 0 {
		c.Problems = append(c.Problems, "no seed lost an applied op: every cut landed after quiescence")
	}
	c.Golden = golden.String()
	return c, nil
}

// ReplaySeeds runs seeds 1..seeds on tgt twice each: the same seed must
// reproduce the same cut, the same recovery, the same fault counts and the
// same verdict, bit for bit.
func ReplaySeeds(tgt Target, seeds int64) error {
	for seed := int64(1); seed <= seeds; seed++ {
		a, av, err := RunSeed(tgt, seed, 1)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		b, bv, err := RunSeed(tgt, seed, 1)
		if err != nil {
			return fmt.Errorf("seed %d replay: %w", seed, err)
		}
		if !reflect.DeepEqual(a, b) || len(av) != len(bv) {
			return fmt.Errorf("seed %d not deterministic:\n first %+v (%v)\nsecond %+v (%v)", seed, a, av, b, bv)
		}
	}
	return nil
}
