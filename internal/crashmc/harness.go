// Package crashmc is a deterministic crash-consistency model checker for
// the two persistence backends (internal/core's SlimIO I/O passthru path
// and internal/baseline's kernel path).
//
// Where the PR-1 seeded crash harness sampled one random power-cut instant
// per seed, the checker enumerates the crash-point lattice: a recording
// pass runs the workload once with a passive fault.Plan whose Recorder
// harvests every durability-relevant event boundary — NAND program
// start/completion (the torn-page window), block erases, and the
// client-visible WAL append/sync/rotate/discard and snapshot
// write/commit/abort returns. Every distinct instant, plus its immediate
// predecessor (the torn variant), becomes a candidate cut. Each cut is
// replayed bit-identically — same seed, same workload, power pulled at
// exactly that instant — recovered, and judged by imdb.Model, which mirrors
// every call the driver made (see oracle.go). On violation a greedy shrinker minimizes the workload
// prefix to a smallest failing schedule, serialized as a repro file that
// replays bit-identically; the ones committed under testdata/repro/ run as
// TestReproFiles.
//
// Determinism: the checker is strictly serial, uses a local splitmix64
// stream, and never reads the wall clock, so it falls under every
// determinism-contract pass (wallclock/globalrand/rawgoroutine, run by
// internal/analysis.TestDeterminismContract) like any other simulation
// package.
package crashmc

import (
	"bytes"
	"fmt"

	"github.com/slimio/slimio/internal/baseline"
	"github.com/slimio/slimio/internal/core"
	"github.com/slimio/slimio/internal/exp"
	"github.com/slimio/slimio/internal/fault"
	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/ssd"
	"github.com/slimio/slimio/internal/wal"
)

// Target selects which backend stack the checker drives.
type Target int

const (
	// SlimIO is the I/O-passthru backend on an FDP SSD (internal/core).
	SlimIO Target = iota
	// Baseline is the kernel-path backend on a conventional SSD
	// (internal/baseline over kernelio's f2fs profile).
	Baseline
)

// Targets lists every checkable target in reporting order.
var Targets = []Target{SlimIO, Baseline}

func (t Target) String() string {
	if t == Baseline {
		return exp.BaselineF2FS.String()
	}
	return exp.SlimIOFDP.String()
}

// Kind maps the target to its experiment-harness stack kind.
func (t Target) Kind() exp.BackendKind {
	if t == Baseline {
		return exp.BaselineF2FS
	}
	return exp.SlimIOFDP
}

// parseTarget inverts Target.String: a repro file names its target by the
// stack label.
func parseTarget(s string) (Target, error) {
	switch s {
	case SlimIO.String():
		return SlimIO, nil
	case Baseline.String():
		return Baseline, nil
	}
	return 0, fmt.Errorf("crashmc: unknown target %q", s)
}

// Mutation deliberately breaks the harness's durability accounting, so the
// checker can prove it detects oracle violations (the model checker's own
// mutation test).
type Mutation int

// The zero Mutation is the honest harness.
const (
	// MutAckOnAppend claims durability at WALAppend return without waiting
	// for WALSync — the classic forgot-to-fsync bug. Any cut between an
	// append's return and the covering sync's completion then loses
	// "acked" records, which the oracle must flag.
	MutAckOnAppend Mutation = iota + 1
)

// DefaultOps is the standard workload length (matches the PR-1 harness).
const DefaultOps = 160

// Workload derives a deterministic client schedule from a seed: framed WAL
// appends (sizes from the seed stream), syncs, up to three rotations, and
// multi-page WAL-snapshot writes, each aborted or committed and followed by
// a discard of the sealed log.
type Workload struct {
	Seed     int64
	Ops      int
	Mutation Mutation
}

// withDefaults fills the zero-value workload length.
func (w Workload) withDefaults() Workload {
	if w.Ops <= 0 {
		w.Ops = DefaultOps
	}
	return w
}

// rng returns a local splitmix64 stream; the checker never touches
// math/rand global state (seed reproducibility is the contract under test).
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

// clientState holds the client's WAL write buffer where the harness can
// still reach it after a power cut freezes the client mid-call. A chain in
// the middle of a WALAppend needs no tracking here: both backends stage the
// references they have not yet handed off in their own structures (see
// core.Backend.staged, baseline.Backend.appending), so a frozen call leaves
// nothing reachable only from the client's stack.
type clientState struct {
	buf *wal.Buffer
	// inside names the driver call a cut froze, if it is one the checker
	// counts cuts inside of.
	inside string
}

// call runs f as the driver call named name.
func (cs *clientState) call(name string, f func() error) error {
	cs.inside = name
	err := f()
	cs.inside = ""
	return err
}

// close releases whatever the (possibly frozen) client still owns.
func (cs *clientState) close() {
	cs.buf.Close()
}

// drive executes the seeded workload against m, the model mirroring the
// engine's backend, so m holds exactly what the client observed returned
// when the engine stops at a cut. mark, when non-nil, receives every
// client-visible return instant for lattice harvesting.
func drive(env *sim.Env, m *imdb.Model, w Workload, pageSize int, cs *clientState, mark func(kind string, t sim.Time)) {
	next := rng(w.Seed)
	note := func(kind string) {
		if mark != nil {
			mark(kind, env.Now())
		}
	}
	sync := func() bool {
		if err := m.WALSync(env); err != nil {
			return false
		}
		note("sync.return")
		return true
	}
	rotations := 0
	for i := 0; i < w.Ops; i++ {
		key := []byte(fmt.Sprintf("k%05d", i))
		val := bytes.Repeat([]byte{byte('a' + i%26)}, 40+int(next()%2000))
		cs.buf.Append(wal.OpSet, key, val)
		chain := cs.buf.Drain()
		if err := m.WALAppend(env, chain); err != nil {
			chain.Release() // failed append leaves ownership with the caller
			return
		}
		if w.Mutation == MutAckOnAppend {
			// Injected oracle bug: the model alone is told the append is
			// synced, as an engine that forgot to fsync would believe.
			be := m.Under
			m.Under = nil
			m.WALSync(env)
			m.Under = be
		}
		note("append.return")
		r := next() % 100
		// A rotating step does not sync first: WALRotate must seal the
		// segment so that a later sync makes its tail durable.
		rotate := r < 6 && rotations < 3
		if r < 35 && !rotate && !sync() {
			return
		}
		if rotate {
			if err := m.WALRotate(env); err != nil {
				return
			}
			// Drop the buffer's retained tail so the next append starts on a
			// fresh segment, page-aligned with the new log head.
			cs.buf.Restart(nil)
			rotations++
			note("rotate.return")
		}
		if r >= 94 {
			// A multi-page snapshot write for a cut to land inside. One in
			// three is aborted; a committed one makes the sealed log
			// obsolete, as a WAL-Snapshot's commit does.
			sink, err := m.BeginSnapshot(env, imdb.WALSnapshot)
			if err != nil {
				return
			}
			img := bytes.Repeat([]byte{byte(next())}, int(4+next()%12)*pageSize)
			if err := sink.Write(env, img); err != nil {
				sink.Abort(env)
				return
			}
			note("snap.write.return")
			if r >= 98 {
				if cs.call("abort", func() error { return sink.Abort(env) }) != nil {
					return
				}
				note("snap.abort.return")
				continue
			}
			if err := sink.Commit(env); err != nil {
				return
			}
			note("snap.commit.return")
			if cs.call("discard", func() error { return m.WALDiscardOld(env) }) != nil {
				return
			}
			note("discard.return")
		}
	}
	sync()
}

// Device sizing for checker stacks: small enough that hundreds of replays
// stay cheap, big enough that DefaultGeometry keeps its 16-blocks-per-die
// GC headroom floor.
const (
	deviceBytes = 64 << 20
	slotBytes   = 1 << 20
)

// engineOutcome is one engine's share of a replay: the model of what its
// client observed up to the cut, and what its recovery produced.
type engineOutcome struct {
	Model *imdb.Model
	Rec   *imdb.Recovered
	// Inside names the driver call the cut froze, if one the checker
	// counts (see clientState.call).
	Inside string
}

// summary condenses the outcome for seed-corpus comparison.
func (e engineOutcome) summary() TenantOutcome {
	recs := recoveredRecords(e.Rec)
	appended, acked := e.Model.Records()
	return TenantOutcome{
		Appended:  appended,
		Acked:     acked,
		Recovered: len(recs),
		Digest:    digestRecords(recs),
	}
}

// runOutcome is everything one replay produces: per engine, the model of
// the client-visible calls up to the cut and the recovered state; plus the
// injected-fault stats.
type runOutcome struct {
	// Engines has one entry per workload, in order (exactly one for a
	// single-engine replay).
	Engines []engineOutcome
	Faults  fault.Stats
	// End is the cut instant, or the natural end of a full run.
	End sim.Time
}

// seedWorkloads derives the per-tenant schedules of a seeded crash run. The
// op budget divides the single-engine workload length so the total write
// volume (and checker wall time) stays comparable, and tenants get distinct
// seeds: correlated schedules would put every tenant at the same phase at
// any cut. One tenant is exactly Workload{Seed: seed, Ops: DefaultOps}.
func seedWorkloads(seed int64, tenants int) []Workload {
	ws := make([]Workload, tenants)
	for i := range ws {
		ws[i] = Workload{Seed: seed + int64(i)*7717, Ops: max(1, DefaultOps/tenants)}
	}
	return ws
}

// runOnce builds a fresh stack of kind with one engine mount per workload
// (several share the device as tenants), drives every workload concurrently
// on the one simulation engine, and recovers each mount on a fresh engine.
// cut == 0 runs to completion (the recording pass); cut > 0 pulls power on
// the whole device at that instant (in-flight programs tear, nothing past it
// executes) before recovering over the frozen device. rec and mark harvest
// device-level and client-visible boundaries for the lattice.
func runOnce(kind exp.BackendKind, ws []Workload, cut sim.Time, rec fault.Recorder, mark func(string, sim.Time)) (*runOutcome, error) {
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
	// Unwind parked processes so replays do not pile up leaked stacks.
	defer eng.Shutdown()
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
	pageSize := st.Dev.PageSize()
	out := &runOutcome{Engines: make([]engineOutcome, len(ws))}
	clients := make([]*clientState, len(ws))
	for i, w := range ws {
		m := &imdb.Model{Under: backends[i]}
		out.Engines[i].Model = m
		clients[i] = &clientState{buf: wal.NewBuffer(st.Pool())}
		eng.Spawn(fmt.Sprintf("client%d", i), func(env *sim.Env) {
			drive(env, m, w, pageSize, clients[i], mark)
		})
	}
	out.End = cut
	if cut > 0 {
		eng.RunUntil(cut)
		eng.Stop()
	} else {
		out.End = eng.Run()
	}
	// Power restored: recovery reads a healthy, frozen device.
	st.Dev.FTL().Array().SetFaultHook(nil)

	eng2 := sim.NewEngine()
	defer eng2.Shutdown()
	reopened := make([]interface {
		imdb.Backend
		Close()
	}, len(ws))
	for i := range reopened {
		if st.FS != nil {
			reopened[i], err = baseline.Remount(st.FS.Remount(eng2))
		} else {
			reopened[i], err = core.New(eng2, devs[i], core.Config{SlotPages: sc.SlotBytes / int64(pageSize)})
		}
		if err != nil {
			return nil, fmt.Errorf("crashmc: %s engine %d reopen (cut %v): %w", kind, i, cut, err)
		}
	}
	recErrs := make([]error, len(ws))
	for i, be := range reopened {
		eng2.Spawn(fmt.Sprintf("recover%d", i), func(env *sim.Env) {
			rec, err := be.Recover(env)
			if rec != nil {
				// The image's runs and the log's records may be views of
				// device pages, which the teardown below releases (and -race
				// builds overwrite); the model judges them after that, so it
				// gets copies.
				if rec.HaveSnapshot {
					rec.Snapshot = [][]byte{bytes.Join(rec.Snapshot, nil)}
				}
				for i := range rec.WAL {
					rec.WAL[i] = rec.WAL[i].Clone()
				}
			}
			out.Engines[i].Rec, recErrs[i] = rec, err
		})
	}
	eng2.Run()
	for i, err := range recErrs {
		if err != nil {
			return nil, fmt.Errorf("crashmc: %s engine %d recover (cut %v): %w", kind, i, cut, err)
		}
		if out.Engines[i].Rec == nil {
			return nil, fmt.Errorf("crashmc: %s engine %d recovery produced nothing (cut %v)", kind, i, cut)
		}
	}
	// Teardown: release everything both generations (the cut one and the
	// recovery one) still hold, then require the data plane quiescent — a
	// non-zero count is a leaked reference somewhere on the zero-copy write
	// path, and every replay of the crash-point lattice runs this check.
	for i := range clients {
		out.Engines[i].Inside = clients[i].inside
		clients[i].close()
		reopened[i].Close()
	}
	if err := st.Teardown(); err != nil {
		return nil, fmt.Errorf("crashmc: %s: %w (cut %v)", kind, err, cut)
	}
	out.Faults = st.Fault.Stats()
	return out, nil
}

// SeedResult summarizes one seeded crash run; two runs with the same seed
// must be identical (the determinism half of the contract).
type SeedResult struct {
	Cut sim.Time
	TenantOutcome
	Faults fault.Stats
}

// runSeed replicates the PR-1 seeded crash harness on the shared
// model-checker machinery: a recording pass measures the workloads' span,
// the seed picks one cut inside it, and the replay at that cut is returned
// for the caller to judge.
func runSeed(kind exp.BackendKind, seed int64, tenants int) (sim.Time, *runOutcome, error) {
	ws := seedWorkloads(seed, tenants)
	full, err := runOnce(kind, ws, 0, nil, nil)
	if err != nil {
		return 0, nil, err
	}
	// A distinct stream for the cut draw, so it is not correlated with the
	// workloads' first value-size draws.
	next := rng(^seed)
	cut := sim.Time(1 + next()%uint64(full.End))
	out, err := runOnce(kind, ws, cut, nil, nil)
	return cut, out, err
}

// RunSeed is the single-engine seeded crash run, judged by the engine's
// model.
func RunSeed(tgt Target, seed int64) (SeedResult, *Violation, error) {
	cut, out, err := runSeed(tgt.Kind(), seed, 1)
	if err != nil {
		return SeedResult{}, nil, err
	}
	e := out.Engines[0]
	return SeedResult{Cut: cut, TenantOutcome: e.summary(), Faults: out.Faults}, e.judge(tgt, cut), nil
}
