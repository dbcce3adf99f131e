// Package crashmc is a deterministic crash-consistency model checker for
// the in-memory engine on its two persistence backends (internal/core's
// SlimIO passthru path and internal/baseline's kernel path).
//
// The driver is the real imdb.Engine, over an imdb.Model that mirrors the
// stack's backend (Model.Under) seen through a probe (see probe). One client
// per engine issues seeded SETs and DELs serially, so its history order is
// the apply order. A recording pass harvests the crash-point lattice: NAND
// program start/completion (the torn-page window), block erases, and the
// probe's marks of backend-call and op returns, each instant with its
// predecessor. Each cut replays the workload bit-identically with power
// pulled at that instant, recovers into a fresh engine, and is judged by
// imdb.Model.Admits and the state rule (see oracle.go). A greedy shrinker
// minimizes a failing workload to a repro file that replays bit-identically;
// the ones under testdata/repro/ run as TestReproFiles.
//
// Determinism: the checker is strictly serial, uses a local splitmix64
// stream and never reads the wall clock, so it falls under every
// determinism-contract pass (internal/analysis.TestDeterminismContract).
package crashmc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"github.com/slimio/slimio/internal/baseline"
	"github.com/slimio/slimio/internal/core"
	"github.com/slimio/slimio/internal/exp"
	"github.com/slimio/slimio/internal/fault"
	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/ssd"
	"github.com/slimio/slimio/internal/wal"
)

// Target is a backend stack the checker drives.
type Target = exp.BackendKind

// The checkable targets: SlimIO's passthru path on an FDP SSD, and the
// kernel path over f2fs on a conventional one.
const (
	SlimIO   = exp.SlimIOFDP
	Baseline = exp.BaselineF2FS
)

// Targets lists the checkable targets in reporting order.
var Targets = []Target{SlimIO, Baseline}

// parseTarget inverts Target.String, as a repro file names its target.
func parseTarget(s string) (Target, error) {
	for _, t := range Targets {
		if t.String() == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("crashmc: unknown target %q", s)
}

// Mutation deliberately breaks the harness's durability accounting, so the
// checker can prove it detects oracle violations. The zero Mutation is the
// honest harness.
type Mutation int

// MutAckOnAppend claims durability at WALAppend return without waiting for
// WALSync — the classic forgot-to-fsync bug: any cut between an append's
// return and the covering sync's completion then loses "acked" records.
const MutAckOnAppend Mutation = 1

// DefaultOps is the standard workload length (matches the PR-1 harness).
const DefaultOps = 160

// Workload derives a deterministic client schedule from a seed: SETs of
// 40–2040 random bytes and DELs (one op in 7) over a small keyspace, under
// Policy. Nothing in it depends on Ops but where it stops, so a shorter
// workload replays a prefix of a longer one.
type Workload struct {
	Seed     int64          `json:"seed"`
	Ops      int            `json:"ops"`
	Policy   imdb.LogPolicy `json:"policy"`
	Mutation Mutation       `json:"mutation"`
}

// rng returns a local splitmix64 stream, never math/rand's global one.
func rng(seed int64) func() uint64 {
	state := uint64(seed)
	return func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}

// The driver's shape: keys overwrite and delete each other, the log passes
// the WAL-Snapshot trigger every ~55 ops, and ops come in bursts with a
// pause after each, so a run spans a few Periodical-Log flush ticks and
// outlasts the engine's back-off after a snapshot aborts.
const (
	keyspace   = 16
	walTrigger = 48 << 10
	burst      = 16
	pause      = 300 * sim.Millisecond
)

// drive is one client: w.Ops serial SETs and DELs in bursts, each entered
// in p's history before it is submitted, then Shutdown. It triggers one
// On-Demand-Snapshot, at a seed-drawn op, without waiting for it, and
// returns when it stopped.
func drive(env *sim.Env, db *imdb.Engine, w Workload, p *probe) sim.Time {
	next := rng(w.Seed)
	onDemandAt := 8 + int(next()%152)
	for i := 0; i < w.Ops; i++ {
		if i == onDemandAt {
			db.TriggerSnapshot(imdb.OnDemandSnapshot)
		}
		key := fmt.Sprintf("k%02d", next()%keyspace)
		var val []byte
		if next()%7 != 0 {
			val = make([]byte, 2048)
			for j := 0; j < len(val); j += 8 {
				binary.LittleEndian.PutUint64(val[j:], next())
			}
			val = val[:40+next()%2001]
		}
		p.apply(key, val)
		var err error
		if val == nil {
			err = db.Del(env, key)
		} else {
			err = db.Set(env, key, val)
		}
		if err != nil {
			return env.Now()
		}
		p.acked++
		p.ret(env, "op.return", nil)
		if i%burst == burst-1 {
			env.Sleep(pause)
		}
	}
	_ = db.Shutdown(env) // a failed final flush shows as ops the full run lost
	return env.Now()
}

// probe is an engine's backend, the model of the stack's backend, and its
// client's history. It marks each call's return for the lattice (mark is nil
// outside the recording pass), names the call a cut can freeze, applies the
// mutation, counts the records discards dropped, and fails a Write of one
// snapshot in three, drawn from fail.
type probe struct {
	*imdb.Model
	history
	mutation Mutation
	fail     func() uint64
	mark     func(kind string, t sim.Time)
	inside   string
	dropped  int
}

// ret marks the return of a call that succeeded.
func (p *probe) ret(env *sim.Env, kind string, err error) error {
	if err == nil && p.mark != nil {
		p.mark(kind, env.Now())
	}
	return err
}

func (p *probe) WALAppend(env *sim.Env, data wal.Chain) error {
	err := p.Model.WALAppend(env, data)
	if err == nil && p.mutation == MutAckOnAppend {
		// Injected oracle bug: the model alone is told the append is
		// synced, as an engine that forgot to fsync would believe.
		be := p.Under
		p.Under = nil
		p.Model.WALSync(env)
		p.Under = be
	}
	return p.ret(env, "append.return", err)
}

func (p *probe) WALSync(env *sim.Env) error { return p.ret(env, "sync.return", p.Model.WALSync(env)) }

func (p *probe) WALRotate(env *sim.Env) error {
	return p.ret(env, "rotate.return", p.Model.WALRotate(env))
}

func (p *probe) WALDiscardOld(env *sim.Env) error {
	before, _ := p.Records()
	p.inside = "discard"
	err := p.Model.WALDiscardOld(env)
	p.inside = ""
	after, _ := p.Records()
	p.dropped += before - after
	return p.ret(env, "discard.return", err)
}

func (p *probe) BeginSnapshot(env *sim.Env, kind imdb.SnapshotKind) (imdb.SnapshotSink, error) {
	s, err := p.Model.BeginSnapshot(env, kind)
	if err != nil {
		return nil, err
	}
	return &probeSink{SnapshotSink: s, p: p, fail: p.fail()%3 == 0}, nil
}

// probeSink is a snapshot sink seen through the probe. When fail is set,
// its second Write, the first past the image header, fails once the backend
// has taken the chunk.
type probeSink struct {
	imdb.SnapshotSink
	p      *probe
	fail   bool
	writes int
}

func (s *probeSink) Write(env *sim.Env, chunk []byte) error {
	err := s.SnapshotSink.Write(env, chunk)
	if s.writes++; err == nil && s.fail && s.writes == 2 {
		return errors.New("crashmc: injected snapshot write failure")
	}
	return s.p.ret(env, "snap.write.return", err)
}

func (s *probeSink) Commit(env *sim.Env) error {
	return s.p.ret(env, "snap.commit.return", s.SnapshotSink.Commit(env))
}

func (s *probeSink) Abort(env *sim.Env) error {
	s.p.inside = "abort"
	err := s.SnapshotSink.Abort(env)
	s.p.inside = ""
	return s.p.ret(env, "snap.abort.return", err)
}

// keeper is a reopened backend that keeps what its Recover hands the engine
// (views of the device, valid until the teardown), which Engine.Recover
// drops once it has loaded the store.
type keeper struct {
	imdb.Backend
	rec imdb.Recovered
}

func (k *keeper) Recover(env *sim.Env) (*imdb.Recovered, error) {
	rec, err := k.Backend.Recover(env)
	if rec != nil {
		k.rec = *rec
		k.rec.WAL = slices.Clone(rec.WAL)
	}
	return rec, err
}

// Device sizing for checker stacks: small enough that hundreds of replays
// stay cheap, big enough that DefaultGeometry keeps its 16-blocks-per-die
// GC headroom floor.
const (
	deviceBytes = 64 << 20
	slotBytes   = 1 << 20
)

// runOutcome is everything one replay produces: one judged outcome per
// workload, in order, the injected-fault stats, and the cut instant or the
// natural end of a full run.
type runOutcome struct {
	Engines []engineOutcome
	Faults  fault.Stats
	End     sim.Time
}

// seedWorkloads derives the per-tenant schedules of a seeded crash run.
// Tenants split the DefaultOps budget and get distinct seeds (correlated
// schedules would put every tenant at the same phase at any cut), and the
// log policy alternates by seed, so every corpus runs both.
func seedWorkloads(seed int64, tenants int) []Workload {
	ws := make([]Workload, tenants)
	for i := range ws {
		ws[i] = Workload{Seed: seed + int64(i)*7717, Ops: max(1, DefaultOps/tenants), Policy: imdb.LogPolicy(seed % 2)}
	}
	return ws
}

// runOnce builds a fresh stack of kind with one engine per workload (more
// than one share the device as tenants), drives them concurrently, and
// recovers each into a fresh engine. cut == 0 runs to completion (the
// recording pass); cut > 0 pulls power on the whole device at that instant
// (in-flight programs tear, nothing past it executes). rec and mark harvest
// the lattice's device-level and return instants.
func runOnce(kind Target, ws []Workload, cut sim.Time, rec fault.Recorder, mark func(string, sim.Time)) (*runOutcome, error) {
	sc := exp.Scale{
		Name:          "crashmc",
		DeviceBytes:   deviceBytes,
		SlotBytes:     slotBytes / int64(len(ws)),
		FaultRecorder: rec,
	}
	eng := sim.NewEngine()
	st, err := exp.BuildStackN(eng, kind, len(ws), sc)
	if err != nil {
		return nil, err
	}
	if cut > 0 {
		st.ArmPowerCut(cut)
	}
	// Each engine's backend, and the device (the whole one, or a tenant's
	// window of it) its reopened successor mounts.
	backends, devs := make([]imdb.Backend, len(ws)), make([]*ssd.Device, len(ws))
	if len(ws) == 1 {
		backends[0], devs[0] = st.Backend, st.Dev
	}
	for i, t := range st.Tenants {
		backends[i], devs[i] = t.Slim, t.Dev
	}
	// The snapshot child walks the small keyspace slowly, in several
	// batches, so traffic interleaves with the walk as it does on a large
	// store.
	cost := imdb.DefaultCostModel()
	cost.SnapshotBatchKeys, cost.SerializeBandwidth = 2, 8<<20
	out := &runOutcome{Engines: make([]engineOutcome, len(ws))}
	dbs, probes := make([]*imdb.Engine, len(ws)), make([]*probe, len(ws))
	for i, w := range ws {
		probes[i] = &probe{Model: &imdb.Model{Under: backends[i]}, history: newHistory(), mutation: w.Mutation, fail: rng(w.Seed + 1<<32), mark: mark}
		dbs[i] = imdb.New(eng, probes[i], imdb.Config{Policy: w.Policy, WALSnapshotTrigger: walTrigger, Cost: cost, Pool: st.Pool()}, nil)
		dbs[i].Start()
		eng.Spawn(fmt.Sprintf("client%d", i), func(env *sim.Env) {
			// A full run ends with the last client: a Periodical-Log
			// engine's flush timer outlives its Shutdown by up to a tick.
			out.End = max(out.End, drive(env, dbs[i], w, probes[i]))
		})
	}
	if cut > 0 {
		eng.RunUntil(cut)
		eng.Stop()
		out.End = cut
	} else {
		eng.Run()
	}
	// Power restored: recovery reads a healthy, frozen device. The cut
	// generation goes as a killed process does: processes, then buffers.
	st.Dev.FTL().Array().SetFaultHook(nil)
	eng.Shutdown()
	for _, db := range dbs {
		db.ReleaseBuffers()
	}

	eng2 := sim.NewEngine()
	defer eng2.Shutdown()
	keepers, recovered := make([]*keeper, len(ws)), make([]*imdb.Engine, len(ws))
	reopened, recErrs := make([]interface{ Close() }, len(ws)), make([]error, len(ws))
	for i := range ws {
		var be interface {
			imdb.Backend
			Close()
		}
		if st.FS != nil {
			be, err = baseline.Remount(st.FS.Remount(eng2))
		} else {
			be, err = core.New(eng2, devs[i], core.Config{SlotPages: sc.SlotBytes / int64(st.Dev.PageSize())})
		}
		if err != nil {
			return nil, fmt.Errorf("crashmc: %s engine %d reopen (cut %v): %w", kind, i, cut, err)
		}
		reopened[i], keepers[i] = be, &keeper{Backend: be}
		recovered[i] = imdb.New(eng2, keepers[i], imdb.Config{Policy: ws[i].Policy, Pool: st.Pool()}, nil)
		eng2.Spawn(fmt.Sprintf("recover%d", i), func(env *sim.Env) {
			_, _, recErrs[i] = recovered[i].Recover(env)
		})
	}
	eng2.Run()
	for i, err := range recErrs {
		if err != nil {
			return nil, fmt.Errorf("crashmc: %s engine %d recover (cut %v): %w", kind, i, cut, err)
		}
		out.Engines[i] = newOutcome(ws[i], probes[i], dbs[i].Stats(), &keepers[i].rec, recovered[i].Store())
		recovered[i].ReleaseBuffers()
		reopened[i].Close()
	}
	// Both generations released everything: every replay checks that the
	// data plane is quiescent (no leaked reference on the zero-copy path).
	if err := st.Teardown(); err != nil {
		return nil, fmt.Errorf("crashmc: %s: %w (cut %v)", kind, err, cut)
	}
	out.Faults = st.Fault.Stats()
	return out, nil
}

// replay runs w alone on tgt with the power cut at cut, and judges it.
func replay(tgt Target, w Workload, cut sim.Time) (*Violation, error) {
	out, err := runOnce(tgt, []Workload{w}, cut, nil, nil)
	if err != nil {
		return nil, err
	}
	return out.Engines[0].judge(tgt, cut), nil
}

// SeedResult summarizes one seeded crash run; two runs with the same seed
// must be identical (the determinism half of the contract).
type SeedResult struct {
	Cut     sim.Time
	Tenants []TenantOutcome
	Faults  fault.Stats
}

// RunSeed is the seeded crash run of the PR-1 harness on the model
// checker's machinery. `tenants` engines share one device of tgt: one is the
// single-engine run, more mount SlimIO tenants (exp.SlimIOFDP leases each a
// placement-ID range, exp.SlimIOConv shares one stream). A recording pass
// harvests the lattice, the seed picks one cut of it (a cut drawn from the
// run's span would mostly land in the pauses, where nothing is in flight),
// and every engine's recovery at that cut is judged on its own: a shared
// outage must not let one tenant's in-flight state corrupt another's
// durable prefix.
func RunSeed(tgt Target, seed int64, tenants int) (SeedResult, []*Violation, error) {
	ws := seedWorkloads(seed, tenants)
	lr := &latticeRecorder{}
	full, err := runOnce(tgt, ws, 0, lr, lr.mark)
	if err != nil {
		return SeedResult{}, nil, err
	}
	// A distinct stream for the cut draw, so it is not correlated with the
	// workloads' first draws.
	lattice := buildLattice(lr.points, full.End)
	res := SeedResult{Cut: lattice[rng(^seed)()%uint64(len(lattice))].T}
	out, err := runOnce(tgt, ws, res.Cut, nil, nil)
	if err != nil {
		return SeedResult{}, nil, err
	}
	res.Faults = out.Faults
	var violations []*Violation
	for _, e := range out.Engines {
		res.Tenants = append(res.Tenants, e.TenantOutcome)
		if v := e.judge(tgt, res.Cut); v != nil {
			violations = append(violations, v)
		}
	}
	return res, violations, nil
}
