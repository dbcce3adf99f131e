package crashmc

import (
	"github.com/slimio/slimio/internal/exp"
	"github.com/slimio/slimio/internal/sim"
)

// TenantOutcome is one engine's share of a crash run: what its client
// observed up to the cut and what its recovery produced.
type TenantOutcome struct {
	Appended  int `json:"appended"`
	Acked     int `json:"acked"`
	Recovered int `json:"recovered"`
	// Digest is an FNV-1a fold of the recovered record sequence.
	Digest uint64 `json:"digest"`
}

// TenantSeedResult summarizes one seeded multi-tenant crash run; like
// SeedResult, two runs with the same seed must be identical.
type TenantSeedResult struct {
	Cut     sim.Time
	Tenants []TenantOutcome
}

// RunTenantSeed is the multi-tenant sibling of RunSeed: it mounts `tenants`
// SlimIO backends on one shared device of kind (exp.SlimIOFDP leases each a
// placement-ID range, exp.SlimIOConv shares one stream), drives each with
// its own seed-derived workload, pulls power on the whole device at a
// seed-drawn instant, then recovers every tenant independently and judges
// each by its own model. The point: a shared outage must
// not let one tenant's in-flight state corrupt another's durable prefix,
// under either placement mode.
func RunTenantSeed(kind exp.BackendKind, seed int64, tenants int) (TenantSeedResult, []*Violation, error) {
	cut, out, err := runSeed(kind, seed, max(2, tenants))
	if err != nil {
		return TenantSeedResult{}, nil, err
	}
	res := TenantSeedResult{Cut: cut}
	var violations []*Violation
	for _, e := range out.Engines {
		res.Tenants = append(res.Tenants, e.summary())
		if v := e.judge(SlimIO, cut); v != nil {
			violations = append(violations, v)
		}
	}
	return res, violations, nil
}
