package crashmc

import (
	"fmt"

	"github.com/slimio/slimio/internal/fault"
	"github.com/slimio/slimio/internal/metrics"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/telemetry"
)

// Config parameterizes one model-checking run.
type Config struct {
	Target   Target
	Workload Workload
	// Budget bounds how many cuts are replayed (0 = the whole lattice),
	// selected by deterministic stride sampling so a small CI budget still
	// covers the full span of the run.
	Budget int
	// StopAtFirst stops enumeration at the first violation (in lattice
	// order) — the shrinker and mutation tests want the earliest failing
	// cut, not an exhaustive census.
	StopAtFirst bool
	// Metrics, when non-nil, receives the aggregate injected-fault
	// counters (fault.*) and checker progress counters (crashmc.*).
	Metrics *metrics.Counter
	// FlightDir, when non-empty, attaches a telemetry cell to every replay
	// and dumps its flight record (the trailing per-layer state samples) there
	// when that replay's recovery violates the durability oracle. The
	// recording pass and the full-run sanity check are not instrumented:
	// their engines run to queue drain, which a sampling tick would prevent.
	FlightDir string
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
	full, err := runOnce(cfg.Target.Kind(), []Workload{w}, 0, lr, lr.mark, nil)
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

	var flights *telemetry.Registry
	if cfg.FlightDir != "" {
		flights = telemetry.NewRegistry(0)
		flights.FlightDir = cfg.FlightDir
	}

	lattice := buildLattice(lr.points, full.End)
	res.LatticeSize = len(lattice)
	for _, cp := range sampleLattice(lattice, cfg.Budget) {
		tele := flights.Cell(fmt.Sprintf("%s/cut-%d", cfg.Target, int64(cp.T)))
		out, err := runOnce(cfg.Target.Kind(), []Workload{w}, cp.T, nil, nil, tele)
		if err != nil {
			return nil, err
		}
		res.CutsChecked++
		res.Faults.Add(out.Faults)
		if v := checkOracle(cfg.Target, cp.T, out.Engines[0].Hist, out.Engines[0].Rec); v != nil {
			tele.DumpFlight("oracle violation: " + v.Code) //nolint:errcheck // the violation is the headline
			res.Violations = append(res.Violations, *v)
			if cfg.StopAtFirst {
				break
			}
		}
	}
	if cfg.Metrics != nil {
		res.Faults.AddTo(cfg.Metrics)
		cfg.Metrics.Inc("crashmc.lattice_points", int64(res.LatticeSize))
		cfg.Metrics.Inc("crashmc.cuts_checked", int64(res.CutsChecked))
		cfg.Metrics.Inc("crashmc.violations", int64(len(res.Violations)))
	}
	return res, nil
}
