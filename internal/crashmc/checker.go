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
	// Inside counts the checked cuts that froze the driver inside a
	// snapshot abort ("abort") or a log discard ("discard").
	Inside map[string]int
}

// Check runs the model checker: one recording pass to harvest the
// crash-point lattice, then one bit-identical replay per selected cut,
// each recovered and judged by the engine's model.
func Check(cfg Config) (*Result, error) {
	w := cfg.Workload.withDefaults()
	lr := &latticeRecorder{}
	full, err := runOnce(cfg.Target.Kind(), []Workload{w}, 0, lr, lr.mark)
	if err != nil {
		return nil, err
	}
	res := &Result{Target: cfg.Target, End: full.End, Inside: map[string]int{}}

	// Sanity cut zero: with no crash at all, recovery must reproduce the
	// model's state exactly (anything else is a bug regardless of crash
	// points).
	if v := full.Engines[0].judgeFull(cfg.Target, full.End); v != nil {
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
		if in := out.Engines[0].Inside; in != "" {
			res.Inside[in]++
		}
		if v := out.Engines[0].judge(cfg.Target, cp.T); v != nil {
			res.Violations = append(res.Violations, *v)
			if cfg.StopAtFirst {
				break
			}
		}
	}
	return res, nil
}
