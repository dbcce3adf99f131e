package crashmc

import (
	"github.com/slimio/slimio/internal/fault"
	"github.com/slimio/slimio/internal/sim"
)

// Config parameterizes one model-checking run.
type Config struct {
	Target   Target
	Workload Workload
	// Budget bounds how many cuts are replayed (0 = the whole lattice),
	// selected by deterministic stride sampling so a small budget still
	// covers the full span of the run.
	Budget int
	// StopAtFirst stops enumeration at the first violation (in lattice
	// order) — the shrinker and mutation tests want the earliest failing
	// cut, not an exhaustive census.
	StopAtFirst bool
}

// Result is one model-checking run's outcome.
type Result struct {
	Target Target
	// LatticeSize is the number of distinct candidate crash instants
	// harvested from the recording pass.
	LatticeSize int
	// CutsChecked is how many of them were replayed and judged.
	CutsChecked int
	// End is the workload's natural end (the lattice's upper bound).
	End sim.Time
	// Violations are the oracle breaches found, in lattice order.
	Violations []Violation
	// Faults aggregates injected faults (torn pages) across all replays.
	Faults fault.Stats
}

// Check runs the model checker: one recording pass to harvest the
// crash-point lattice, then one bit-identical replay per selected cut,
// each recovered and judged by the durability oracle.
func Check(cfg Config) (*Result, error) {
	w := cfg.Workload.withDefaults()
	lr := &latticeRecorder{}
	full, err := runOnce(cfg.Target.Kind(), []Workload{w}, 0, lr, lr.mark)
	if err != nil {
		return nil, err
	}
	res := &Result{Target: cfg.Target, End: full.End}

	// Sanity cut zero: with no crash at all, recovery must reproduce the
	// complete history (anything else is a bug regardless of crash points).
	if v := checkOracle(cfg.Target, full.End, full.Engines[0].Hist, full.Engines[0].Rec); v != nil {
		v.Code = "full-run/" + v.Code
		res.Violations = append(res.Violations, *v)
		if cfg.StopAtFirst {
			return res, nil
		}
	}

	lattice := buildLattice(lr.points, full.End)
	res.LatticeSize = len(lattice)
	for _, cp := range sampleLattice(lattice, cfg.Budget) {
		out, err := runOnce(cfg.Target.Kind(), []Workload{w}, cp.T, nil, nil)
		if err != nil {
			return nil, err
		}
		res.CutsChecked++
		res.Faults.Add(out.Faults)
		if v := checkOracle(cfg.Target, cp.T, out.Engines[0].Hist, out.Engines[0].Rec); v != nil {
			res.Violations = append(res.Violations, *v)
			if cfg.StopAtFirst {
				break
			}
		}
	}
	return res, nil
}
