package imdb

import (
	"errors"
	"fmt"
	"io"

	"github.com/slimio/slimio/internal/bufpool"
	"github.com/slimio/slimio/internal/metrics"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/snapshot"
	"github.com/slimio/slimio/internal/vtrace"
	"github.com/slimio/slimio/internal/wal"
)

// LogPolicy selects the WAL durability policy (paper §2.1, §5.1).
type LogPolicy int

const (
	// PeriodicalLog buffers log records in user space, hands the buffer to
	// the backend at the end of every event-loop iteration and makes it
	// durable when the flush timer fires (Redis's default).
	PeriodicalLog LogPolicy = iota
	// AlwaysLog makes every write durable before replying, with group
	// commit across the commands of one event-loop batch.
	AlwaysLog
)

func (p LogPolicy) String() string {
	if p == AlwaysLog {
		return "always"
	}
	return "periodical"
}

// Op is a client request opcode.
type Op int

const (
	// OpGet reads a key.
	OpGet Op = iota
	// OpSet writes a key.
	OpSet
	// OpDel deletes a key.
	OpDel
	opTick     // internal: flush timer
	opSnapshot // internal: trigger a snapshot
	opSnapDone // internal: snapshot child finished
	opStop     // internal: drain and shut down
)

// Response is what a request's Reply signal fires with.
type Response struct {
	Value []byte
	Err   error
}

// Request is one client command. Once its Reply fires the engine touches it
// no more, so the submitter may reuse it (and, after Signal.Reset, its Reply)
// for its next command.
type Request struct {
	Op    Op
	Key   string
	Value []byte
	// Reply fires with *Response when the command is finished (for SET
	// under Always-Log: after it is durable). The Response lives in the
	// Request, so it is valid until the Request is submitted again.
	Reply *sim.Signal
	resp  Response

	kind       SnapshotKind // for opSnapshot
	snapResult *snapResult  // for opSnapDone

	// Trace state: the op-layer root span opened at Submit, when the
	// request entered the queue, and when its apply finished (so the
	// commit.wait child can be stamped at reply time).
	span     vtrace.SpanID
	enqueued sim.Time
	applied  sim.Time
}

// snapResult carries a snapshot child's outcome back to the event loop.
type snapResult struct {
	kind   SnapshotKind
	writer *snapshot.Writer
	err    error
	ended  sim.Time
	proc   *sim.Proc
}

// SnapshotEvent records one completed snapshot for reporting.
type SnapshotEvent struct {
	Kind            SnapshotKind
	Start, End      sim.Time
	Duration        sim.Duration
	RawBytes        int64
	CompressedBytes int64
	Entries         int64
	COWCopiedPages  int64
	// CPU breakdown of the snapshot process, by billing tag. In-memory
	// work is BusySerialize+BusyCompress; the kernel-path share (Table 2,
	// Figure 2a) is BusySyscall+BusyCopy+BusyFS (zero under SlimIO, which
	// bills "ring"/"dispatch" instead, reported as BusyRing).
	BusySerialize sim.Duration
	BusyCompress  sim.Duration
	BusySyscall   sim.Duration
	BusyCopy      sim.Duration
	BusyFS        sim.Duration
	BusyRing      sim.Duration
}

// InMemoryTime is the snapshot CPU spent on serialization and compression.
func (ev *SnapshotEvent) InMemoryTime() sim.Duration {
	return ev.BusySerialize + ev.BusyCompress
}

// KernelPathTime is the snapshot CPU spent inside the I/O path (syscalls,
// copies, filesystem code, or ring/dispatch work under passthru).
func (ev *SnapshotEvent) KernelPathTime() sim.Duration {
	return ev.BusySyscall + ev.BusyCopy + ev.BusyFS + ev.BusyRing
}

// DeviceWaitTime is the remainder: time the snapshot process spent blocked
// on storage (device service, writeback throttling, scheduler queues).
func (ev *SnapshotEvent) DeviceWaitTime() sim.Duration {
	d := ev.Duration - ev.InMemoryTime() - ev.KernelPathTime()
	if d < 0 {
		d = 0
	}
	return d
}

// Stats aggregates engine counters.
type Stats struct {
	Gets, Sets     int64
	Dels           int64
	WALFlushes     int64
	WALSyncs       int64
	WALStalls      int64
	WALBytes       int64
	COWCopies      int64
	COWStall       sim.Duration
	ForkStall      sim.Duration
	PeakMemory     int64
	BaseMemory     int64
	Snapshots      []SnapshotEvent
	SnapshotsAbort int64
}

// flushInterval is the Periodical-Log durability timer.
const flushInterval = sim.Second

// snapshotRetryDelay holds the automatic WAL-Snapshot back after a snapshot
// aborts, or after a WAL-Snapshot whose fork could not rotate the log, as
// Redis 7 delays automatic AOF rewrites after a failed one. Either freed no
// log space, so without it a device that keeps failing would restart one
// per event-loop iteration and never let Shutdown through.
const snapshotRetryDelay = sim.Second

// Config tunes the engine.
type Config struct {
	Policy LogPolicy
	// WALSnapshotTrigger starts a WAL-Snapshot once this many bytes have
	// been logged since the last one (paper: 50–55 GB; scale accordingly).
	// Zero disables automatic WAL-Snapshots.
	WALSnapshotTrigger int64
	// BatchMax bounds commands drained per event-loop iteration (and thus
	// per group commit under Always-Log). Default 64.
	BatchMax int
	// Cost is the CPU cost model; zero value selects DefaultCostModel.
	Cost CostModel
	// Pool supplies the page segments the WAL buffer encodes into — share
	// the backend device's pool so drained segments flow to NAND without a
	// copy. Nil creates a private 4 KiB pool (tests, toy setups).
	Pool *bufpool.Pool
	// Trace, when non-nil, records one op-layer root span per client
	// command (queue / apply / commit.wait children), wal-layer root trees
	// per flush, and snapshot-layer root trees per snapshot child. The
	// same tracer must be installed on the backend stack for device spans
	// to nest underneath. Nil disables tracing.
	Trace *vtrace.Tracer
}

func (c *Config) fillDefaults() {
	if c.BatchMax <= 0 {
		c.BatchMax = 64
	}
	if c.Cost.CmdBaseCPU == 0 {
		c.Cost = DefaultCostModel()
	}
	if c.Pool == nil {
		c.Pool = bufpool.New(4096)
	}
}

// Engine is the database server: one event-loop process, a request queue,
// and snapshot child processes. Construct with New, then Start.
type Engine struct {
	eng *sim.Engine
	be  Backend
	cfg Config

	store *Store
	reqQ  *sim.Queue[*Request]

	// walBuf holds every log byte the backend has not accepted, in log
	// order; walRefused and walForkAt name stretches of its head.
	walBuf *wal.Buffer
	// walSegs is the list each drain builds its chain in, reused because no
	// chain outlives the WALAppend call it was drained for.
	walSegs []*bufpool.Segment
	// walRefused counts the bytes at walBuf's head that the backend refused.
	// Like Redis's aof_buf after a failed write, they are offered again,
	// with everything buffered after them, at the next append, so the log
	// never skips a record the store has applied.
	walRefused int
	// walStalled marks the refused bytes as parked behind a full log while a
	// snapshot can free log space: nothing offers them again before a
	// snapshot completes, and appended data is NOT durable meanwhile — the
	// write-stall regime of Figure 4.
	walStalled bool
	// walForkAt is -1 unless the running WAL-Snapshot rotated the log at its
	// fork. Then it counts the bytes at walBuf's head that the snapshot
	// covers: pre-fork records held by a stall, which its commit drops.
	walForkAt int

	syncing  bool
	syncDone *sim.Broadcast
	// walErr is the last Periodical-Log append or background-sync failure.
	// While it is set SET and DEL are refused, as Redis refuses writes after
	// an AOF write error, and GETs keep serving. The next background sync
	// that succeeds, which only starts once the refused bytes are appended,
	// clears it; Shutdown returns it if it is still set.
	walErr error

	snapActive   bool
	snapKind     SnapshotKind
	snapStart    sim.Time
	snapRetryAt  sim.Time      // no automatic WAL-Snapshot before this
	dictLock     *sim.Resource // serializes COW copies with snapshot iteration
	snapDone     *sim.Broadcast
	stopReq      *Request
	stopped      bool
	mainProc     *sim.Proc
	snapProcs    int
	opSeries     *metrics.Series
	stats        Stats
	lastRecovery *Recovered
	arena        arena // the values Recover copied, until ReleaseBuffers
}

// New builds an engine over backend be. opSeries, if non-nil, receives one
// count per completed command (for runtime RPS plots).
func New(eng *sim.Engine, be Backend, cfg Config, opSeries *metrics.Series) *Engine {
	cfg.fillDefaults()
	return &Engine{
		eng:       eng,
		be:        be,
		cfg:       cfg,
		walBuf:    wal.NewBuffer(cfg.Pool),
		walForkAt: -1,
		store:     NewStore(cfg.Cost.MemPageSize),
		reqQ:      sim.NewQueue[*Request](eng),
		dictLock:  sim.NewResource(eng, 1),
		snapDone:  sim.NewBroadcast(eng),
		syncDone:  sim.NewBroadcast(eng),
		opSeries:  opSeries,
		arena:     arena{pool: cfg.Pool},
	}
}

// Start launches the event loop (and the flush ticker under
// Periodical-Log).
func (e *Engine) Start() {
	// The event loop and ticker are daemons: like any server they park
	// waiting for requests, and either run forever (open-ended scenarios)
	// or exit via Shutdown.
	e.mainProc = e.eng.SpawnDaemon("imdb-main", e.mainLoop)
	if e.cfg.Policy == PeriodicalLog {
		e.eng.SpawnDaemon("flush-ticker", e.ticker)
	}
}

// Submit enqueues a client request. The caller waits on req.Reply.
func (e *Engine) Submit(req *Request) {
	if req.Reply == nil {
		req.Reply = sim.NewSignal(e.eng)
	}
	if tr := e.cfg.Trace; tr.Enabled() {
		switch req.Op {
		case OpGet, OpSet, OpDel:
			req.enqueued = e.eng.Now()
			req.span = tr.Begin("op", opTraceName(req.Op), 0, req.enqueued)
		}
	}
	e.reqQ.Push(req)
}

// opTraceName maps a client opcode to its op-span name.
func opTraceName(op Op) string {
	switch op {
	case OpGet:
		return "get"
	case OpSet:
		return "set"
	default:
		return "del"
	}
}

// traceApply stamps the queue and apply children of r's op span: queued
// from Submit until start, applied over [start, now].
func (e *Engine) traceApply(env *sim.Env, r *Request, start sim.Time) {
	if r.span == 0 {
		return
	}
	tr := e.cfg.Trace
	tr.Emit("imdb", "queue", r.span, r.enqueued, start, 0)
	tr.Emit("imdb", "apply", r.span, start, env.Now(), 0)
	r.applied = env.Now()
}

// endOp closes r's op span at reply time; commitWait adds the child span
// covering the durability wait between apply and reply (Always-Log).
func (e *Engine) endOp(env *sim.Env, r *Request, commitWait bool) {
	if r.span == 0 {
		return
	}
	tr := e.cfg.Trace
	if commitWait && env.Now().Sub(r.applied) > 0 {
		tr.Emit("imdb", "commit.wait", r.span, r.applied, env.Now(), 0)
	}
	tr.End(r.span, env.Now())
	r.span = 0
}

// call submits req and blocks the calling process until its reply.
func (e *Engine) call(env *sim.Env, req *Request) *Response {
	e.Submit(req)
	return req.Reply.Wait(env).(*Response)
}

// Get is a convenience blocking read.
func (e *Engine) Get(env *sim.Env, key string) ([]byte, error) {
	resp := e.call(env, &Request{Op: OpGet, Key: key})
	return resp.Value, resp.Err
}

// Set is a convenience blocking write.
func (e *Engine) Set(env *sim.Env, key string, value []byte) error {
	return e.call(env, &Request{Op: OpSet, Key: key, Value: value}).Err
}

// Del is a convenience blocking delete.
func (e *Engine) Del(env *sim.Env, key string) error {
	return e.call(env, &Request{Op: OpDel, Key: key}).Err
}

// TriggerSnapshot requests a snapshot of the given kind; it is ignored if
// one is already running (the paper: the two kinds cannot run concurrently).
// The returned signal fires when the request has been accepted or dropped.
func (e *Engine) TriggerSnapshot(kind SnapshotKind) *Request {
	req := &Request{Op: opSnapshot, kind: kind, Reply: sim.NewSignal(e.eng)}
	e.Submit(req)
	return req
}

// Shutdown asks the event loop to drain, waits for any snapshot to finish,
// flushes the WAL, and stops. Log bytes parked behind a full log first get
// the WAL-Snapshot that covers them. Blocks until done, and returns the
// final flush's error, else an error for parked bytes that never drained,
// else a WAL failure no later sync cleared.
func (e *Engine) Shutdown(env *sim.Env) error {
	return e.call(env, &Request{Op: opStop}).Err
}

// Stats returns a copy of the engine counters.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.Snapshots = append([]SnapshotEvent(nil), e.stats.Snapshots...)
	s.BaseMemory = e.memoryBase()
	return s
}

// Store exposes the keyspace (for verification in tests and recovery).
func (e *Engine) Store() *Store { return e.store }

// SnapshotActive reports whether a snapshot process is running.
func (e *Engine) SnapshotActive() bool { return e.snapActive }

// WaitNoSnapshot blocks the calling process until no snapshot is active.
func (e *Engine) WaitNoSnapshot(env *sim.Env) {
	for e.snapActive {
		e.snapDone.Wait(env)
	}
}

// WALBufferedBytes reports log bytes buffered and not yet offered to the
// backend — the telemetry plane's WAL-buffer-depth gauge.
func (e *Engine) WALBufferedBytes() int { return e.walBuf.Len() - e.walRefused }

// WALPendingBytes reports log bytes the backend refused and the engine still
// holds; a growing value marks an fsync backlog.
func (e *Engine) WALPendingBytes() int { return e.walRefused }

// SyncInFlight reports whether a WAL sync is outstanding.
func (e *Engine) SyncInFlight() bool { return e.syncing }

// MemoryNow reports the engine's current modelled memory footprint —
// the instantaneous value whose maximum Stats.PeakMemory records.
func (e *Engine) MemoryNow() int64 { return e.memoryNow() }

// memoryBase is the steady-state footprint: store payload + per-key
// overhead.
func (e *Engine) memoryBase() int64 {
	return e.store.Bytes() + int64(e.store.Len())*int64(e.cfg.Cost.KeyOverhead)
}

// memoryNow adds snapshot-period overheads: COW page copies and the WAL
// rewrite buffer (Table 1's near-doubling comes from the COW term).
func (e *Engine) memoryNow() int64 {
	m := e.memoryBase() + int64(e.walBuf.Len())
	if e.snapActive {
		// The child shares pages with the parent until COW faults copy them.
		m += e.store.CopiedPages() * e.store.PageSize()
	}
	return m
}

func (e *Engine) notePeak() {
	if m := e.memoryNow(); m > e.stats.PeakMemory {
		e.stats.PeakMemory = m
	}
}

func (e *Engine) ticker(env *sim.Env) {
	for {
		env.Sleep(flushInterval)
		if e.stopped {
			return
		}
		e.reqQ.Push(&Request{Op: opTick})
	}
}

// reply fires r's reply with resp, which it stores in r.
func reply(r *Request, resp Response) {
	r.resp = resp
	r.Reply.Fire(&r.resp)
}

func (e *Engine) mainLoop(env *sim.Env) {
	// The batch and the Always-Log replies it holds back, reused by every
	// iteration and cleared once its replies are out.
	var batch, setReplies []*Request
	for {
		req, ok := e.reqQ.Pop(env)
		if !ok {
			return
		}
		batch = append(batch[:0], req)
		for len(batch) < e.cfg.BatchMax {
			r, ok := e.reqQ.TryPop()
			if !ok {
				break
			}
			batch = append(batch, r)
		}

		setReplies = setReplies[:0]
		for _, r := range batch {
			switch r.Op {
			case OpGet:
				e.execGet(env, r)
			case OpSet, OpDel:
				if e.walErr != nil {
					// Refused: neither applied nor logged.
					env.Work("cmd", e.cfg.Cost.CmdBaseCPU)
					e.endOp(env, r, false)
					reply(r, Response{Err: fmt.Errorf("imdb: write refused after WAL failure: %w", e.walErr)})
					continue
				}
				if r.Op == OpSet {
					e.execSet(env, r)
				} else {
					e.execDel(env, r)
				}
				if e.cfg.Policy == AlwaysLog {
					setReplies = append(setReplies, r)
				} else {
					e.endOp(env, r, false)
					reply(r, Response{})
				}
			case opTick:
				// Periodical-Log timer: make everything appended so far
				// durable. A failed append is retried on the next tick.
				if err := e.appendWAL(env, 0); err != nil {
					e.walErr = err
				} else {
					e.syncInBackground(env)
				}
			case opSnapshot:
				e.maybeStartSnapshot(env, r.kind)
				reply(r, Response{})
			case opSnapDone:
				e.finishSnapshot(env, r.snapResult)
			case opStop:
				e.stopReq = r
			}
		}

		var commit Response
		if e.cfg.Policy == AlwaysLog && (len(setReplies) > 0 || e.WALBufferedBytes() > 0) {
			commit.Err = e.flushWAL(env)
		}
		for _, r := range setReplies {
			e.endOp(env, r, true)
			reply(r, commit)
		}
		clear(batch)
		clear(setReplies)

		// Automatic WAL-Snapshot trigger.
		if e.cfg.WALSnapshotTrigger > 0 && !e.snapActive && env.Now() >= e.snapRetryAt &&
			e.be.WALDurableSize()+int64(e.WALBufferedBytes()) >= e.cfg.WALSnapshotTrigger {
			e.maybeStartSnapshot(env, WALSnapshot)
		}

		// Periodical-Log: hand the buffer to the backend at the end of each
		// event-loop iteration (Redis flushes the AOF buffer in
		// beforeSleep); durability comes from the flush timer above.
		if e.cfg.Policy == PeriodicalLog && e.WALBufferedBytes() > 0 {
			if err := e.appendWAL(env, 0); err != nil {
				e.walErr = err
			}
		}

		// Shutdown once no snapshot is in flight: the child wakes us via
		// opSnapDone if one is. Wait out any background sync first.
		if e.stopReq != nil && !e.snapActive {
			for e.syncing {
				e.syncDone.Wait(env)
			}
			err := e.flushWAL(env)
			if e.walStalled && e.cfg.WALSnapshotTrigger > 0 && env.Now() >= e.snapRetryAt {
				// Log bytes are parked behind a full log: fork the
				// WAL-Snapshot whose commit covers them and frees the log,
				// serve on until it reports, then flush again.
				e.maybeStartSnapshot(env, WALSnapshot)
				continue
			}
			if err == nil && e.walStalled {
				err = fmt.Errorf("imdb: shutdown with %d log bytes parked behind a full log", e.WALPendingBytes())
			}
			if err == nil {
				err = e.walErr
			}
			e.walBuf.Close() // drop the retained tail and any refused bytes
			e.stopped = true
			reply(e.stopReq, Response{Err: err})
			return
		}
	}
}

// syncInBackground makes everything appended so far durable. As in Redis's
// appendfsync-everysec the sync runs on a background thread; the event loop
// only blocks when the previous sync is still lagging. A failed sync sets
// walErr; a successful one clears a failure recorded before it began. The
// caller appends any bytes a failed append refused first, so the sync
// covers them.
func (e *Engine) syncInBackground(env *sim.Env) {
	for e.syncing {
		e.syncDone.Wait(env)
	}
	e.syncing = true
	failed := e.walErr != nil
	env.Spawn("wal-bio-sync", func(child *sim.Env) {
		tr := e.cfg.Trace
		span := tr.Begin("wal", "sync", 0, child.Now())
		tr.SetScope(span)
		err := e.be.WALSync(child)
		tr.SetScope(0)
		tr.End(span, child.Now())
		if err != nil {
			e.walErr = err
		} else {
			e.stats.WALSyncs++
			if failed {
				e.walErr = nil
			}
		}
		e.syncing = false
		e.syncDone.Notify()
	})
}

func (e *Engine) execGet(env *sim.Env, r *Request) {
	cost := e.cfg.Cost
	start := env.Now()
	v := e.store.Get(r.Key)
	env.Work("cmd", cost.CmdBaseCPU+sim.DurationForBytes(int64(len(v)), cost.StoreBandwidth))
	e.stats.Gets++
	e.countOp(env)
	e.traceApply(env, r, start)
	e.endOp(env, r, false)
	reply(r, Response{Value: v})
}

func (e *Engine) execSet(env *sim.Env, r *Request) {
	cost := e.cfg.Cost
	start := env.Now()
	env.Work("cmd", cost.CmdBaseCPU+sim.DurationForBytes(int64(len(r.Value)), cost.StoreBandwidth))
	e.copyOnWrite(env, e.store.Set(r.Key, r.Value))
	e.walBuf.AppendString(wal.OpSet, r.Key, r.Value)
	e.stats.Sets++
	e.countOp(env)
	e.traceApply(env, r, start)
	e.notePeak()
}

// execDel removes a key and logs a deletion record; like SETs, deletions
// during a snapshot pay copy-on-write for the pages they touch.
func (e *Engine) execDel(env *sim.Env, r *Request) {
	cost := e.cfg.Cost
	start := env.Now()
	env.Work("cmd", cost.CmdBaseCPU)
	e.copyOnWrite(env, e.store.Delete(r.Key))
	e.walBuf.AppendString(wal.OpDel, r.Key, nil)
	e.stats.Dels++
	e.countOp(env)
	e.traceApply(env, r, start)
}

// copyOnWrite bills the pages a write had to copy because the snapshot child
// still shared them, stalling both processes on the dict lock (paper §2.2).
func (e *Engine) copyOnWrite(env *sim.Env, copied int64) {
	if copied == 0 {
		return
	}
	t0 := env.Now()
	e.dictLock.Acquire(env)
	env.Work("cow", e.cfg.Cost.COWCopyPerPage*sim.Duration(copied))
	e.dictLock.Release()
	e.stats.COWCopies += copied
	e.stats.COWStall += env.Now().Sub(t0)
}

func (e *Engine) countOp(env *sim.Env) {
	if e.opSeries != nil {
		e.opSeries.Add(env.Now(), 1)
	}
}

// appendWAL drains the user-level buffer into the backend without forcing
// durability. A refused chain goes back to the buffer's head. If the backend
// is out of log space (ErrLogFull) while a snapshot is in flight (which will
// free the old WAL on completion), or a WAL-Snapshot can be forked to free
// it, the bytes are parked until a snapshot completes: the engine keeps
// serving but writes lose durability until the stall clears, as §5.4
// observes for direct-write designs under device pressure. Otherwise the
// error is returned, and the next append offers the bytes again.
func (e *Engine) appendWAL(env *sim.Env, parent vtrace.SpanID) error {
	if e.walStalled || e.walBuf.Len() == 0 {
		return nil
	}
	err := e.appendBuffered(env, parent)
	if errors.Is(err, ErrLogFull) && (e.snapActive || e.cfg.WALSnapshotTrigger > 0) {
		// Park, then force the log-compacting snapshot, whose fork covers
		// the parked bytes.
		e.walStalled = true
		e.stats.WALStalls++
		e.maybeStartSnapshot(env, WALSnapshot)
		return nil
	}
	return err
}

// appendBuffered offers everything buffered to the backend as one chain,
// under a wal/append span, and counts it once accepted. A refused chain keeps
// its references (see imdb.Backend) and goes back to the buffer's head.
func (e *Engine) appendBuffered(env *sim.Env, parent vtrace.SpanID) error {
	data := e.walBuf.DrainTo(e.walSegs)
	n := data.Len()
	tr := e.cfg.Trace
	span := tr.Begin("wal", "append", parent, env.Now())
	tr.SetArg(span, int64(n))
	tr.SetScope(span)
	err := e.be.WALAppend(env, data)
	tr.SetScope(0)
	tr.End(span, env.Now())
	e.walRefused = 0
	if err == nil {
		e.stats.WALFlushes++
		e.stats.WALBytes += int64(n)
	} else {
		e.walBuf.Undrain(data)
		e.walRefused = n
	}
	clear(data.Segs)
	e.walSegs = data.Segs[:0]
	return err
}

// flushWAL drains the buffer and makes it durable (Always-Log batches,
// shutdown).
func (e *Engine) flushWAL(env *sim.Env) error {
	tr := e.cfg.Trace
	span := tr.Begin("wal", "flush", 0, env.Now())
	defer func() { tr.End(span, env.Now()) }()
	if err := e.appendWAL(env, span); err != nil {
		return err
	}
	tr.SetScope(span)
	err := e.be.WALSync(env)
	tr.SetScope(0)
	if err != nil {
		return err
	}
	e.stats.WALSyncs++
	return nil
}

// maybeStartSnapshot forks a snapshot child unless one is already running.
func (e *Engine) maybeStartSnapshot(env *sim.Env, kind SnapshotKind) {
	if e.snapActive {
		return
	}
	// fork(2): the main process stalls for the page-table copy. The stall
	// is part of the snapshot interval (phase accounting includes it).
	cost := e.cfg.Cost
	e.snapStart = env.Now()
	stall := cost.ForkBase + cost.ForkPerPage*sim.Duration(e.store.Pages())
	t0 := env.Now()
	env.Work("fork", stall)
	e.stats.ForkStall += env.Now().Sub(t0)
	e.cfg.Trace.Instant("snapshot", "fork", env.Now(), int64(stall))

	e.store.BeginCOWEpoch()
	e.snapActive = true
	e.snapKind = kind
	if kind == WALSnapshot {
		// Rotate the log at the fork point (Redis 7 multipart-AOF style):
		// pre-fork records stay in the sealed segment that the snapshot
		// will supersede; post-fork records start a fresh segment. Stalled
		// on log space, the pre-fork records still buffered are the
		// snapshot's too: they park behind the stall, and the snapshot's
		// commit drops them all.
		if err := e.appendWAL(env, 0); err == nil {
			if e.walStalled {
				e.walRefused = e.walBuf.Len()
			}
			if err := e.be.WALRotate(env); err == nil {
				e.walForkAt = e.walBuf.Len()
				if e.walForkAt == 0 {
					// Start the post-fork records on a fresh segment so
					// the buffer's page boundaries track the new log head.
					e.walBuf.Restart(nil)
				}
			}
		}
	}
	keysAtFork := e.store.ListedLen()
	e.snapProcs++
	env.Spawn(fmt.Sprintf("snapshot-%s-%d", kind, e.snapProcs), func(child *sim.Env) {
		e.runSnapshot(child, kind, keysAtFork)
	})
}

// runSnapshot is the snapshot child process: iterate the keyspace under
// short dict-lock holds, serialize and compress chunks, and stream them into
// the backend sink. Completion is reported back to the event loop through
// the request queue so that WAL swapping happens in main-loop context.
func (e *Engine) runSnapshot(env *sim.Env, kind SnapshotKind, keysAtFork int) {
	tr := e.cfg.Trace
	snapSpan := tr.Begin("snapshot", kind.String(), 0, env.Now())
	report := func(w *snapshot.Writer, err error) {
		tr.End(snapSpan, env.Now())
		e.reqQ.Push(&Request{Op: opSnapDone, snapResult: &snapResult{
			kind: kind, writer: w, err: err, ended: env.Now(), proc: env.Proc(),
		}})
	}
	cost := e.cfg.Cost
	tr.SetScope(snapSpan)
	sink, err := e.be.BeginSnapshot(env, kind)
	tr.SetScope(0)
	if err != nil {
		report(nil, err)
		return
	}
	var werr error
	w, err := snapshot.NewWriter(snapshot.DefaultChunkSize, func(chunk []byte, raw int) error {
		env.Work("compress", sim.DurationForBytes(int64(raw), cost.CompressBandwidth))
		tr.SetScope(snapSpan)
		err := sink.Write(env, chunk)
		tr.SetScope(0)
		return err
	})
	if err != nil {
		_ = sink.Abort(env)
		report(nil, err)
		return
	}
	batch := make([]entry, 0, cost.SnapshotBatchKeys)
	for i := 0; i < keysAtFork && werr == nil; i += cost.SnapshotBatchKeys {
		// Only the dict walk holds the lock (the COW-contended resource);
		// serialization, compression and I/O run outside it, as they do in
		// a real forked child.
		e.dictLock.Acquire(env)
		batch = e.store.appendValued(batch[:0], i, min(i+cost.SnapshotBatchKeys, keysAtFork))
		e.dictLock.Release()
		var batchBytes int64
		for _, ent := range batch {
			k := []byte(ent.key)
			batchBytes += int64(snapshot.EntrySize(k, ent.val))
			if werr = w.Add(k, ent.val); werr != nil {
				break
			}
		}
		env.Work("serialize", sim.DurationForBytes(batchBytes, cost.SerializeBandwidth))
		env.Yield() // let the main loop interleave between batches
	}
	if werr == nil {
		werr = w.Close()
	}
	if werr != nil {
		_ = sink.Abort(env)
		report(nil, werr)
		return
	}
	tr.SetScope(snapSpan)
	err = sink.Commit(env)
	tr.SetScope(0)
	if err != nil {
		report(nil, err)
		return
	}
	report(w, nil)
}

// finishSnapshot runs in the event loop when the child reports completion:
// record the event, and for WAL-Snapshots swap in the new WAL seeded with
// the rewrite buffer.
func (e *Engine) finishSnapshot(env *sim.Env, res *snapResult) {
	if res.err != nil || res.kind == WALSnapshot && e.walForkAt < 0 {
		e.snapRetryAt = env.Now().Add(snapshotRetryDelay)
	}
	if res.err != nil {
		e.stats.SnapshotsAbort++
	} else {
		w := res.writer
		ev := SnapshotEvent{
			Kind:            res.kind,
			Start:           e.snapStart,
			End:             res.ended,
			Duration:        res.ended.Sub(e.snapStart),
			RawBytes:        w.RawBytes(),
			CompressedBytes: w.CompressedBytes(),
			Entries:         w.Entries(),
			COWCopiedPages:  e.store.CopiedPages(),
			BusySerialize:   res.proc.BusyTime("serialize"),
			BusyCompress:    res.proc.BusyTime("compress"),
			BusySyscall:     res.proc.BusyTime("syscall"),
			BusyCopy:        res.proc.BusyTime("copy"),
			BusyFS:          res.proc.BusyTime("fs"),
			BusyRing:        res.proc.BusyTime("ring") + res.proc.BusyTime("dispatch"),
		}
		e.stats.Snapshots = append(e.stats.Snapshots, ev)
		if e.walForkAt >= 0 {
			// The snapshot covers everything up to the fork, so the sealed
			// pre-fork segment is obsolete; the current segment (post-fork
			// records) simply continues. No replay is needed.
			_ = e.be.WALDiscardOld(env)
		}
	}
	if e.walForkAt > 0 {
		// Records held at the fork: a commit covers them, an abort covers
		// nothing and they still go to the log. Either way what is left
		// goes to the segment the fork rotated to, which nothing has filled
		// (nothing drains during a stall).
		skip := 0
		if res.err == nil {
			skip = e.walForkAt
		}
		e.walBuf.Relay(skip)
		e.walRefused, e.walStalled = 0, false
	}
	e.notePeak()
	e.walForkAt = -1
	e.snapActive = false
	e.store.EndCOWEpoch()
	e.snapDone.Notify()
	// Offer the bytes parked during the snapshot again (On-Demand
	// completions do not clear the log, so the parked data still needs
	// appending). This never forks a snapshot.
	if e.walStalled {
		if err := e.appendBuffered(env, 0); err != nil {
			// Still no space: stay stalled until the next completion.
			e.stats.WALStalls++
		} else {
			e.walStalled = false
		}
	}
}

// ReleaseBuffers drops every pooled segment the engine still holds — the WAL
// buffer, refused bytes included, and the arena holding the values Recover
// copied, so the store must not be read after it. Teardown only: experiment
// cells call it before asserting pool quiescence. Refused bytes were never
// durable, so dropping them models exactly what the stall regime loses.
func (e *Engine) ReleaseBuffers() {
	e.walBuf.Close()
	e.arena.release()
}

// LastRecovery returns what the backend handed to the most recent Recover
// call — including its Degraded notes and WAL truncation point — or nil if
// Recover has not run.
func (e *Engine) LastRecovery() *Recovered { return e.lastRecovery }

// Recover loads durable state from the backend into a fresh store,
// returning counts. It must be called before Start (on a new Engine) and
// bills realistic CPU: decompress + insert per entry, then WAL replay.
//
// It issues the Set/Delete sequence of loading the image and replaying every
// log record, but copies only the values the store keeps: each key's last
// one, once, into the engine's arena. A value that a later record replaces
// before Recover returns — a snapshot entry whose key the log rewrites, a log
// record superseded by a later one of its key — goes in as a transient view
// of the image or the log, of the same length, so the spans, the slot order,
// Bytes and the billing are those of copying everything. The WAL buffer
// then resumes inside a copy of the open segment's last, part-filled page
// (wal.Buffer.Restart), so the first append after Start continues it.
func (e *Engine) Recover(env *sim.Env) (entries int64, walRecords int64, err error) {
	rec, err := e.be.Recover(env)
	if err != nil {
		return 0, 0, err
	}
	e.lastRecovery = rec
	cost := e.cfg.Cost
	log := internLogKeys(rec.WAL)
	if rec.HaveSnapshot {
		r := snapshot.NewImageReader(rec.Snapshot)
		for {
			batch, rerr := r.Next()
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				// A committed snapshot should decode end to end; damage here
				// means the device lost pages under it. Keep what loaded and
				// lean on the WAL replay below rather than refusing to start.
				rec.Degraded = append(rec.Degraded, fmt.Sprintf("snapshot decode stopped after %d entries: %v", entries, rerr))
				break
			}
			var raw int64
			for _, ent := range batch {
				raw += int64(snapshot.EntrySize(ent.Key, ent.Value))
				// ent is a view valid until the next Next.
				if slot, ok := log.index[string(ent.Key)]; ok {
					e.store.Set(log.keys[slot], ent.Value)
				} else {
					e.store.Set(string(ent.Key), append(e.arena.alloc(len(ent.Value)), ent.Value...))
				}
				entries++
			}
			env.Work("decompress", sim.DurationForBytes(raw, cost.DecompressBandwidth))
			env.Work("insert", cost.InsertPerEntry*sim.Duration(len(batch)))
		}
		// What LastRecovery returns must not keep the image's device pages.
		rec.Snapshot = nil
	}
	var scratch []byte
	if len(rec.WAL) > 0 {
		// The next append continues the open segment's last page, so the
		// buffer resumes inside a copy of that page's recovered bytes.
		open := &rec.WAL[len(rec.WAL)-1]
		from := open.Prefix - open.Prefix%int64(e.cfg.Pool.SegSize())
		scratch = open.AppendRange(scratch, from, int(open.Prefix-from))
		e.walBuf.Restart(scratch)
	}
	// Replay the log segments in order; each truncates independently at a
	// torn record. Corruption past the durable prefix is noted, not fatal:
	// the prefix is exactly what the backend guaranteed durable.
	n := int32(0) // the record's index across segments
	for i := range rec.WAL {
		seg := &rec.WAL[i]
		if seg.Corrupt {
			rec.Degraded = append(rec.Degraded, fmt.Sprintf("wal segment %d: corrupt frame at byte %d (replayed %d records)", i, seg.Prefix, seg.Count()))
		}
		for j := 0; j < seg.Count(); j, n = j+1, n+1 {
			slot := log.slots[n]
			switch seg.Op(j) {
			case wal.OpDel:
				e.store.Delete(log.keys[slot])
			default:
				var v []byte
				if log.last[slot] == n {
					v = seg.AppendValue(e.arena.alloc(seg.ValueLen(j)), j)
				} else {
					v = seg.Value(j, &scratch)
				}
				e.store.Set(log.keys[slot], v)
			}
			walRecords++
			env.Work("insert", cost.InsertPerEntry)
		}
		env.Work("insert", sim.DurationForBytes(seg.Len, cost.StoreBandwidth))
		// What LastRecovery returns must not keep the log's device pages.
		*seg = wal.Segment{Len: seg.Len, Prefix: seg.Prefix, Corrupt: seg.Corrupt}
	}
	return entries, walRecords, nil
}

// logKeys interns the keys of a recovered log: keys[slots[n]] is the key of
// its n-th record, counting across segments, last[slots[n]] is the index of
// that key's last record, and index maps each key to its slot.
type logKeys struct {
	index map[string]int32
	keys  []string
	last  []int32
	slots []int32
}

// internLogKeys walks the keys of every record of log.
func internLogKeys(log []wal.Segment) logKeys {
	total := 0
	for i := range log {
		total += log[i].Count()
	}
	k := logKeys{index: make(map[string]int32), slots: make([]int32, 0, total)}
	var scratch []byte
	for i := range log {
		seg := &log[i]
		for j := 0; j < seg.Count(); j++ {
			key := seg.Key(j, &scratch)
			slot, ok := k.index[string(key)]
			if !ok {
				slot = int32(len(k.keys))
				s := string(key)
				k.index[s] = slot
				k.keys = append(k.keys, s)
				k.last = append(k.last, 0)
			}
			k.last[slot] = int32(len(k.slots))
			k.slots = append(k.slots, slot)
		}
	}
	return k
}

// arena holds the values Recover copies, packed into segments of the
// engine's pool: at recovery they sit idle and resident, where fresh heap
// would fault every page in. A value larger than a segment is a heap copy.
// The engine keeps the segments' references until ReleaseBuffers.
type arena struct {
	pool *bufpool.Pool
	segs []*bufpool.Segment
	free []byte // the unused rest of the newest segment
}

// alloc returns room for an n-byte value: an empty slice of capacity n.
func (a *arena) alloc(n int) []byte {
	switch {
	case n == 0:
		return []byte{}
	case n > a.pool.SegSize():
		return make([]byte, 0, n)
	case n > len(a.free):
		s := a.pool.Get()
		a.segs = append(a.segs, s)
		a.free = s.Bytes()
	}
	v := a.free[:0:n]
	a.free = a.free[n:]
	return v
}

// release drops every segment reference the arena holds.
func (a *arena) release() {
	for _, s := range a.segs {
		s.Release()
	}
	a.segs, a.free = nil, nil
}
