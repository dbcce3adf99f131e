package crashmc

import (
	"fmt"
	"strings"
)

// CorpusSeeds and CorpusShortSeeds are how many seeds a single-engine corpus
// sweep runs in full and under -short; the short corpus is the one pinned to
// a committed golden, so every test mode checks it.
const (
	CorpusSeeds      = 55
	CorpusShortSeeds = 12
)

// Corpus is what SweepSeeds found on one target.
type Corpus struct {
	// Golden holds one outcome line per seed up to CorpusShortSeeds: a
	// change that shifts every cut the same way in every run is invisible
	// to a replay, but not to committed outcomes.
	Golden string
	// Problems names each seed whose recovery the model did not admit, and
	// a sweep that never tore a page (every cut missed the write window) or
	// never lost an unsynced tail (every cut landed after quiescence).
	Problems []string
}

// SweepSeeds runs seeds 1..seeds on tgt. Each seed derives its own workload
// and power-cut instant, and the engine's model judges the recovery. The
// aggregate must include torn pages (cuts landing mid-program or mid-flush)
// and lossy cuts (an unsynced tail that recovery correctly drops), or the
// corpus is not exercising the window it claims to.
func SweepSeeds(tgt Target, seeds int64) (Corpus, error) {
	var c Corpus
	var golden strings.Builder
	var torn, lossy int64
	for seed := int64(1); seed <= seeds; seed++ {
		res, v, err := RunSeed(tgt, seed)
		if err != nil {
			return Corpus{}, fmt.Errorf("seed %d: %w", seed, err)
		}
		if v != nil {
			c.Problems = append(c.Problems, fmt.Sprintf("seed %d: oracle violation: %v", seed, v))
		}
		if seed <= CorpusShortSeeds {
			fmt.Fprintf(&golden, "seed=%d cut=%d appended=%d acked=%d recovered=%d digest=%016x faults=%+v\n",
				seed, int64(res.Cut), res.Appended, res.Acked, res.Recovered, res.Digest, res.Faults)
		}
		torn += res.Faults.TornPrograms
		if res.Recovered < res.Appended {
			lossy++
		}
	}
	if torn == 0 {
		c.Problems = append(c.Problems, "no seed tore a page: every cut missed the write window")
	}
	if lossy == 0 {
		c.Problems = append(c.Problems, "no seed lost an unsynced tail: every cut landed after quiescence")
	}
	c.Golden = golden.String()
	return c, nil
}

// ReplaySeeds runs seeds 1..seeds on tgt twice each: the same seed must
// reproduce the same cut, the same recovery, the same fault counts and the
// same verdict, bit for bit.
func ReplaySeeds(tgt Target, seeds int64) error {
	for seed := int64(1); seed <= seeds; seed++ {
		a, av, err := RunSeed(tgt, seed)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		b, bv, err := RunSeed(tgt, seed)
		if err != nil {
			return fmt.Errorf("seed %d replay: %w", seed, err)
		}
		if a != b || (av == nil) != (bv == nil) {
			return fmt.Errorf("seed %d not deterministic:\n first %+v (%v)\nsecond %+v (%v)", seed, a, av, b, bv)
		}
	}
	return nil
}
