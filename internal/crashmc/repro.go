package crashmc

import (
	"encoding/json"
	"fmt"

	"github.com/slimio/slimio/internal/sim"
)

// ReproVersion is bumped whenever the schedule encoding changes meaning.
const ReproVersion = 2

// Repro is a serialized smallest failing schedule: everything needed to
// re-run one crash replay bit-identically, plus the violation the original
// run observed. Repro files live in testdata/repro/, where TestReproFiles
// replays every one; a replay that produces any other violation (or none)
// means the build under test no longer fails the same way.
type Repro struct {
	Version int    `json:"version"`
	Target  string `json:"target"`
	Workload
	CutNanos  int64     `json:"cut_nanos"`
	Violation Violation `json:"violation"` // the expected breach, bit for bit
}

// NewRepro packages a failing schedule (typically post-Shrink).
func NewRepro(tgt Target, w Workload, cut sim.Time, v Violation) *Repro {
	return &Repro{Version: ReproVersion, Target: tgt.String(), Workload: w, CutNanos: int64(cut), Violation: v}
}

// Encode renders the repro as indented JSON with a trailing newline.
func (r *Repro) Encode() ([]byte, error) {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// DecodeRepro parses and validates a repro file.
func DecodeRepro(data []byte) (*Repro, error) {
	var r Repro
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("crashmc: repro: %w", err)
	}
	if r.Version != ReproVersion {
		return nil, fmt.Errorf("crashmc: repro version %d, this build speaks %d", r.Version, ReproVersion)
	}
	if _, err := parseTarget(r.Target); err != nil {
		return nil, err
	}
	if r.Ops <= 0 || r.CutNanos <= 0 {
		return nil, fmt.Errorf("crashmc: repro: ops %d / cut %d out of range", r.Ops, r.CutNanos)
	}
	return &r, nil
}

// Replay re-runs the schedule and returns the violation it observes, nil if
// none; callers compare it with r.Violation for the bit-identical contract.
func (r *Repro) Replay() (*Violation, error) {
	tgt, err := parseTarget(r.Target)
	if err != nil {
		return nil, err
	}
	return replay(tgt, r.Workload, sim.Time(r.CutNanos))
}
