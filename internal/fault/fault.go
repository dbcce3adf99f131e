// Package fault provides a deterministic, seed-driven fault plan for the
// simulated device stack. A Plan implements nand.FaultHook and is installed
// on a nand.Array, where it is consulted on every read, program, and erase:
//
//   - transient read failures with a per-operation probability (NVMe status
//     0x281, Unrecovered Read Error — a retry may succeed),
//   - permanent program failures with a per-operation probability (NVMe
//     status 0x280, Write Fault — the FTL must retire the block),
//   - erase failures (the block keeps its contents and must retire),
//   - torn/partial page programs at power loss: once a power cut is
//     scheduled at a virtual time T, every program whose completion falls
//     after T stores a deterministically corrupted partial image instead of
//     its payload,
//   - scheduled power cuts at arbitrary virtual times, driven by the crash
//     harness (the engine stops at T; the torn classification above makes
//     the device contents at T physically honest).
//
// Determinism: the plan owns a local splitmix64 generator seeded from
// Config.Seed — no math/rand global state, no wall clock. Since the
// simulation itself is deterministic, the same seed over the same workload
// yields the same fault schedule, byte for byte. With every rate at zero and
// no power cut scheduled, the plan makes no decisions and consumes no
// randomness, so attaching it leaves runs bit-identical to a perfect device.
package fault

import (
	"github.com/slimio/slimio/internal/metrics"
	"github.com/slimio/slimio/internal/nand"
	"github.com/slimio/slimio/internal/sim"
)

// Config parameterizes a fault plan. The zero value injects nothing.
type Config struct {
	// Seed drives the plan's private PRNG.
	Seed int64
	// ReadErrRate is the per-read probability of a transient read failure.
	ReadErrRate float64
	// ProgramErrRate is the per-program probability of a permanent failure.
	ProgramErrRate float64
	// EraseErrRate is the per-erase probability of an erase failure.
	EraseErrRate float64
	// Recorder, when non-nil, observes every operation boundary. It
	// activates an otherwise-zero plan; with every rate at zero it observes
	// without injecting, consuming no randomness, so a recorded run stays
	// bit-identical to an unhooked one.
	Recorder Recorder
}

// Counter names Stats.AddTo exports the injected-fault counts under.
const (
	CounterReadErr     = "fault.read_err"
	CounterProgramErr  = "fault.program_err"
	CounterEraseErr    = "fault.erase_err"
	CounterTornProgram = "fault.torn_program"
)

// Stats counts the faults a plan actually injected.
type Stats struct {
	ReadErrors    int64
	ProgramErrors int64
	EraseErrors   int64
	TornPrograms  int64
}

// Add accumulates other into s (aggregating plans across replays).
func (s *Stats) Add(other Stats) {
	s.ReadErrors += other.ReadErrors
	s.ProgramErrors += other.ProgramErrors
	s.EraseErrors += other.EraseErrors
	s.TornPrograms += other.TornPrograms
}

// AddTo exports the counts into c, for the sorted counter dump slimio-bench
// prints: the experiment runners call it once per finished cell. Zero counts
// are skipped to keep fault-free dumps empty.
func (s Stats) AddTo(c *metrics.Counter) {
	for _, kv := range []struct {
		name string
		n    int64
	}{
		{CounterReadErr, s.ReadErrors},
		{CounterProgramErr, s.ProgramErrors},
		{CounterEraseErr, s.EraseErrors},
		{CounterTornProgram, s.TornPrograms},
	} {
		if kv.n != 0 {
			c.Inc(kv.name, kv.n)
		}
	}
}

// Recorder observes every device-level operation boundary the plan is
// consulted on: program start/completion, erase, read. The crash model
// checker (internal/crashmc) attaches one to a passive plan to harvest the
// crash-point lattice — the set of virtual instants where pulling power
// yields a distinct device state. A recorder must not mutate simulation
// state; it only collects timestamps.
type Recorder interface {
	// RecordRead is called for every page read at its issue time.
	RecordRead(now sim.Time, ppa nand.PPA)
	// RecordProgram is called for every page program with its issue and
	// completion times. A power cut in [start, done) tears the page; a cut
	// at or after done leaves it intact.
	RecordProgram(start, done sim.Time, ppa nand.PPA)
	// RecordErase is called for every block erase at its issue time.
	RecordErase(now sim.Time, die, block int)
}

// Plan is one deterministic fault schedule. It satisfies nand.FaultHook.
type Plan struct {
	cfg      Config
	rng      splitmix
	cutAt    sim.Time
	cutArmed bool
	stats    Stats
}

var _ nand.FaultHook = (*Plan)(nil)

// NewPlan builds a plan from cfg.
func NewPlan(cfg Config) *Plan {
	return &Plan{cfg: cfg, rng: splitmix{state: uint64(cfg.Seed)}}
}

// Active reports whether the plan needs to be installed at all: it can
// inject something, or a recorder wants to observe operation boundaries.
// BuildStack skips installing an inactive plan so the hook stays nil
// (strict no-op).
func (p *Plan) Active() bool {
	return p.cfg.ReadErrRate > 0 || p.cfg.ProgramErrRate > 0 || p.cfg.EraseErrRate > 0 || p.cutArmed || p.cfg.Recorder != nil
}

// SchedulePowerCut arms a power cut at virtual time at: programs completing
// after it become torn. The harness pairs this with eng.RunUntil(at) +
// eng.Stop() so no process observes a completion past the cut.
func (p *Plan) SchedulePowerCut(at sim.Time) {
	p.cutAt = at
	p.cutArmed = true
}

// Stats returns the injected-fault counts.
func (p *Plan) Stats() Stats { return p.stats }

// ReadFault implements nand.FaultHook.
func (p *Plan) ReadFault(now sim.Time, ppa nand.PPA) error {
	if r := p.cfg.Recorder; r != nil {
		r.RecordRead(now, ppa)
	}
	if p.cfg.ReadErrRate > 0 && p.rng.float64() < p.cfg.ReadErrRate {
		p.stats.ReadErrors++
		return &nand.DeviceError{Status: nand.StatusUnrecoveredRead, Transient: true, Op: "read", PPA: ppa}
	}
	return nil
}

// ProgramFault implements nand.FaultHook. The power-cut check comes first: a
// program still in flight when power dies is torn regardless of media health.
func (p *Plan) ProgramFault(now, done sim.Time, ppa nand.PPA, data []byte) nand.ProgramDecision {
	if r := p.cfg.Recorder; r != nil {
		r.RecordProgram(now, done, ppa)
	}
	if p.cutArmed && done > p.cutAt {
		p.stats.TornPrograms++
		return nand.ProgramDecision{Outcome: nand.ProgramTorn, Torn: p.tornImage(data)}
	}
	if p.cfg.ProgramErrRate > 0 && p.rng.float64() < p.cfg.ProgramErrRate {
		p.stats.ProgramErrors++
		return nand.ProgramDecision{Outcome: nand.ProgramFail}
	}
	return nand.ProgramDecision{}
}

// EraseFault implements nand.FaultHook.
func (p *Plan) EraseFault(now sim.Time, die, block int) error {
	if r := p.cfg.Recorder; r != nil {
		r.RecordErase(now, die, block)
	}
	if p.cfg.EraseErrRate > 0 && p.rng.float64() < p.cfg.EraseErrRate {
		p.stats.EraseErrors++
		return &nand.DeviceError{Status: nand.StatusEraseFault, Op: "erase", PPA: nand.InvalidPPA}
	}
	return nil
}

// tornImage builds the partial program image of a torn page: a prefix of the
// intended payload survives, the rest is non-zero garbage (so WAL decoding
// can distinguish it from a clean unwritten tail).
func (p *Plan) tornImage(data []byte) []byte {
	out := make([]byte, len(data))
	if len(data) == 0 {
		return out
	}
	keep := int(p.rng.next() % uint64(len(data)+1))
	copy(out, data[:keep])
	for i := keep; i < len(out); i++ {
		b := byte(p.rng.next())
		if b == 0 {
			b = 0xA5
		}
		out[i] = b
	}
	return out
}

// splitmix is splitmix64 (Steele et al.): tiny, fast, and sequential-seed
// friendly, which matters because crash-harness seeds are 0,1,2,...
type splitmix struct{ state uint64 }

func (s *splitmix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform value in [0,1).
func (s *splitmix) float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}
