// Package crashmc is a deterministic crash-consistency model checker for
// the two persistence backends (internal/core's SlimIO I/O passthru path
// and internal/baseline's kernel path).
//
// Where the PR-1 seeded crash harness sampled one random power-cut instant
// per seed, the checker enumerates the crash-point lattice: a recording
// pass runs the workload once with a passive fault.Plan whose Recorder
// harvests every durability-relevant event boundary — NAND program
// start/completion (the torn-page window), block erases, and the
// client-visible WAL append/sync/rotate and snapshot-commit returns. Every
// distinct instant, plus its immediate predecessor (the torn variant),
// becomes a candidate cut. Each cut is replayed bit-identically — same
// seed, same workload, power pulled at exactly that instant — recovered,
// and judged by a durability oracle built from the client-visible history
// (see oracle.go). On violation a greedy shrinker minimizes the workload
// prefix to a smallest failing schedule, serialized as a repro file that
// cmd/slimio-check replays bit-identically.
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
	"github.com/slimio/slimio/internal/telemetry"
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

// ParseTarget accepts both the short CLI spellings and the stack labels.
func ParseTarget(s string) (Target, error) {
	switch s {
	case "slimio", exp.SlimIOFDP.String():
		return SlimIO, nil
	case "baseline", exp.BaselineF2FS.String():
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
// multi-page WAL-snapshot writes, the same shape as the PR-1 seeded crash
// harness so the seed corpus carries over.
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

// SnapEvent is the client-visible life of one snapshot write.
type SnapEvent struct {
	// Img is the exact image handed to the sink.
	Img []byte
	// CommitInFlight is true from the Commit call until it returns; in
	// that window a crash may legitimately surface the new image, the
	// previous one, or (kernel path: delete-then-rename) none at all.
	CommitInFlight bool
	// Committed is true once Commit returned: the image was acked durable.
	Committed bool
}

// History is the client-visible record of one run, maintained by the
// driver as it executes; when the engine stops at a cut, the history holds
// exactly what a client had observed by that instant.
type History struct {
	// Ops are the appended records in issue order.
	Ops []wal.Record
	// Acked counts the leading ops covered by a returned WALSync.
	Acked int
	// Snaps are the snapshot writes in issue order.
	Snaps []*SnapEvent
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
}

// close releases whatever the (possibly frozen) client still owns.
func (cs *clientState) close() {
	cs.buf.Close()
}

// drive executes the seeded workload against be. mark, when non-nil,
// receives every client-visible return instant for lattice harvesting.
func drive(env *sim.Env, be imdb.Backend, w Workload, pageSize int, cs *clientState, h *History, mark func(kind string, t sim.Time)) {
	next := rng(w.Seed)
	note := func(kind string) {
		if mark != nil {
			mark(kind, env.Now())
		}
	}
	sync := func() bool {
		if err := be.WALSync(env); err != nil {
			return false
		}
		h.Acked = len(h.Ops)
		note("sync.return")
		return true
	}
	rotations := 0
	for i := 0; i < w.Ops; i++ {
		key := []byte(fmt.Sprintf("k%05d", i))
		val := bytes.Repeat([]byte{byte('a' + i%26)}, 40+int(next()%2000))
		cs.buf.Append(wal.OpSet, key, val)
		chain := cs.buf.Drain()
		if err := be.WALAppend(env, chain); err != nil {
			chain.Release() // failed append leaves ownership with the caller
			return
		}
		h.Ops = append(h.Ops, wal.Record{Op: wal.OpSet, Key: key, Value: val})
		if w.Mutation == MutAckOnAppend {
			// Injected oracle bug: claim durability at append return, as
			// an engine that forgot to fsync would.
			h.Acked = len(h.Ops)
		}
		note("append.return")
		r := next() % 100
		if r < 35 && !sync() {
			return
		}
		if r < 6 && rotations < 3 {
			// Sync first so a sealed segment is always fully durable.
			if !sync() {
				return
			}
			if err := be.WALRotate(env); err != nil {
				return
			}
			// Drop the buffer's retained tail so the next append starts on a
			// fresh segment, page-aligned with the new log head.
			cs.buf.Cut()
			rotations++
			note("rotate.return")
		}
		if r >= 94 {
			// A multi-page snapshot write for a cut to land inside.
			sink, err := be.BeginSnapshot(env, imdb.WALSnapshot)
			if err != nil {
				return
			}
			img := bytes.Repeat([]byte{byte(next())}, int(4+next()%12)*pageSize)
			se := &SnapEvent{Img: img}
			h.Snaps = append(h.Snaps, se)
			if err := sink.Write(env, img); err != nil {
				sink.Abort(env)
				return
			}
			note("snap.write.return")
			se.CommitInFlight = true
			if err := sink.Commit(env); err != nil {
				return
			}
			se.CommitInFlight = false
			se.Committed = true
			note("snap.commit.return")
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

// engineOutcome is one engine's share of a replay: what its client observed
// up to the cut and what its recovery produced.
type engineOutcome struct {
	Hist *History
	Rec  *imdb.Recovered
}

// summary condenses the outcome for seed-corpus comparison.
func (e engineOutcome) summary() TenantOutcome {
	recs := recoveredRecords(e.Rec)
	return TenantOutcome{
		Appended:  len(e.Hist.Ops),
		Acked:     e.Hist.Acked,
		Recovered: len(recs),
		Digest:    digestRecords(recs),
	}
}

// runOutcome is everything one replay produces: per engine, the
// client-visible history up to the cut and the recovered state; plus the
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
// device-level and client-visible boundaries for the lattice. tele, when
// non-nil, is a telemetry cell that samples the replay's
// per-layer state; only cut > 0 replays may be instrumented: the sampling
// tick reschedules itself, so a run-to-drain engine would never stop.
func runOnce(kind exp.BackendKind, ws []Workload, cut sim.Time, rec fault.Recorder, mark func(string, sim.Time), tele *telemetry.Cell) (*runOutcome, error) {
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
		exp.AttachStackTelemetry(st, tele)
		tele.Start(eng)
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
		hist := &History{}
		out.Engines[i].Hist = hist
		clients[i] = &clientState{buf: wal.NewBuffer(st.Pool())}
		eng.Spawn(fmt.Sprintf("client%d", i), func(env *sim.Env) {
			drive(env, backends[i], w, pageSize, clients[i], hist, mark)
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
			if rec != nil && rec.HaveSnapshot {
				// The image's runs may be views of device pages, which the
				// teardown below releases (and -race builds overwrite); the
				// oracle judges the image after that, so it gets a copy, as
				// the one run it reads.
				rec.Snapshot = [][]byte{bytes.Join(rec.Snapshot, nil)}
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
	Cut       sim.Time
	Appended  int
	Acked     int
	Recovered int
	Digest    uint64
	Faults    fault.Stats
}

// runSeed replicates the PR-1 seeded crash harness on the shared
// model-checker machinery: a recording pass measures the workloads' span,
// the seed picks one cut inside it, and the replay at that cut is returned
// for the caller to judge with the full durability oracle.
func runSeed(kind exp.BackendKind, seed int64, tenants int) (sim.Time, *runOutcome, error) {
	ws := seedWorkloads(seed, tenants)
	full, err := runOnce(kind, ws, 0, nil, nil, nil)
	if err != nil {
		return 0, nil, err
	}
	// A distinct stream for the cut draw, so it is not correlated with the
	// workloads' first value-size draws.
	next := rng(^seed)
	cut := sim.Time(1 + next()%uint64(full.End))
	out, err := runOnce(kind, ws, cut, nil, nil, nil)
	return cut, out, err
}

// RunSeed is the single-engine seeded crash run, judged by the full
// durability oracle rather than only the WAL-prefix check. It backs the
// deduplicated seed-corpus tests in internal/core and internal/baseline.
func RunSeed(tgt Target, seed int64) (SeedResult, *Violation, error) {
	cut, out, err := runSeed(tgt.Kind(), seed, 1)
	if err != nil {
		return SeedResult{}, nil, err
	}
	e := out.Engines[0]
	u := e.summary()
	res := SeedResult{
		Cut:       cut,
		Appended:  u.Appended,
		Acked:     u.Acked,
		Recovered: u.Recovered,
		Digest:    u.Digest,
		Faults:    out.Faults,
	}
	return res, checkOracle(tgt, cut, e.Hist, e.Rec), nil
}
