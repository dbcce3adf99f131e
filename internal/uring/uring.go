// Package uring models io_uring with NVMe passthrough (the kernel's "I/O
// passthru" path, Joshi et al., FAST'24): a submission queue / completion
// queue pair shared between application and kernel, an optional SQPOLL
// kernel poller that removes syscalls from the submission path entirely, and
// passthru commands that bypass the page cache, filesystem, and block-layer
// scheduler to reach the device directly — carrying an FDP placement
// identifier end to end.
//
// This is the I/O path SlimIO builds on: the Redis main process owns one
// ring for the WAL-Path and each snapshot process owns another for the
// Snapshot-Path, so the two workloads share no kernel state (paper §4.1).
package uring

import (
	"fmt"

	"github.com/slimio/slimio/internal/bufpool"
	"github.com/slimio/slimio/internal/nand"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/ssd"
	"github.com/slimio/slimio/internal/vtrace"
)

// Op is a passthru command opcode.
type Op int

const (
	// OpWrite writes consecutive pages at an LPA with a placement ID.
	OpWrite Op = iota
	// OpRead reads consecutive pages from an LPA.
	OpRead
	// OpDeallocate TRIMs a page range.
	OpDeallocate
)

// SQE is a submission-queue entry (one passthru NVMe command).
//
// Ownership: Submit takes one reference per pooled page in Pages. The ring
// releases each after the device has consumed the command (the NAND layer
// retains what it stores), so a caller that wants to keep using a segment
// past submission must Retain its own reference first.
type SQE struct {
	Op    Op
	LPA   int64
	Pages []bufpool.Ref // OpWrite: page payloads
	N     int64         // OpRead / OpDeallocate: page count
	PID   uint32        // FDP placement identifier

	// Span optionally parents this command's trace span; when zero the
	// ring falls back to the tracer's current scope at Submit time.
	Span vtrace.SpanID

	done      *sim.Signal
	result    *CQE
	span      vtrace.SpanID
	submitted sim.Time
}

// CQE is a completion-queue entry. Status carries the NVMe-style status of
// the command (StatusOK on success), mirroring how passthru surfaces raw
// device status to the application instead of a flattened errno.
type CQE struct {
	Err    error
	Status nand.Status
	Data   [][]byte // OpRead results
}

// Config tunes the ring.
type Config struct {
	// SQPoll enables the kernel submission poller: submissions cost no
	// syscall, only a ring write plus the poller pickup latency.
	SQPoll bool
	// SQPollPickup is how long the poller takes to notice a new SQE.
	// Default 500 ns (a polling kernel thread on a dedicated core).
	SQPollPickup sim.Duration
	// SubmitSyscall is the io_uring_enter cost paid per submission batch
	// when SQPoll is off. Default 1.2 µs.
	SubmitSyscall sim.Duration
	// RingOverhead is the user-space cost of preparing one SQE and, on the
	// completion side, reaping one CQE. Default 150 ns.
	RingOverhead sim.Duration
	// DispatchCPU is the kernel-side cost to turn an SQE into an NVMe
	// command (no block layer, no scheduler: cheaper than the kernel
	// path's dispatch). Default 700 ns.
	DispatchCPU sim.Duration
	// Trace, when non-nil, records one uring command span per SQE
	// (submit → completion post) with an sq.wait child covering the time
	// the SQE sat in the submission queue. Nil disables tracing.
	Trace *vtrace.Tracer
}

func (c *Config) fillDefaults() {
	if c.SQPollPickup <= 0 {
		c.SQPollPickup = 500 * sim.Nanosecond
	}
	if c.SubmitSyscall <= 0 {
		c.SubmitSyscall = 1200 * sim.Nanosecond
	}
	if c.RingOverhead <= 0 {
		c.RingOverhead = 150 * sim.Nanosecond
	}
	if c.DispatchCPU <= 0 {
		c.DispatchCPU = 700 * sim.Nanosecond
	}
}

// Stats aggregates ring counters.
type Stats struct {
	Submitted   int64
	Completed   int64
	Syscalls    int64 // zero in SQPOLL mode
	SQPollWakes int64
	// SQPollIdle is cumulative time the SQPOLL poller spent parked with an
	// empty submission queue (zero when SQPoll is off) — the telemetry
	// plane derives poller utilization from its deltas.
	SQPollIdle sim.Duration
}

// Ring is one io_uring instance bound to a device. A Ring is owned by one
// simulated process (as in the paper: one ring per I/O path) but completions
// may be awaited by any process.
type Ring struct {
	eng   *sim.Engine
	dev   *ssd.Device
	cfg   Config
	name  string
	sq    []*SQE
	cq    *sim.Queue[*SQE]
	kick  *sim.Broadcast
	stats Stats

	// pending registers every accepted write command whose page references
	// the ring still owns. Registration happens at Submit entry — before any
	// simulated wait — so a power cut frozen anywhere in the submission or
	// dispatch path leaves the references reachable for DropPending. The
	// window is at most the ring depth, so linear removal stays cheap.
	pending []*SQE
}

// NewRing creates a ring over dev. With cfg.SQPoll a kernel poller daemon is
// spawned; a CQ-handler daemon always runs, firing each SQE's completion
// signal (the paper's "dedicated CQ handling thread").
func NewRing(eng *sim.Engine, dev *ssd.Device, name string, cfg Config) *Ring {
	cfg.fillDefaults()
	r := &Ring{
		eng:  eng,
		dev:  dev,
		cfg:  cfg,
		name: name,
		cq:   sim.NewQueue[*SQE](eng),
		kick: sim.NewBroadcast(eng),
	}
	if cfg.SQPoll {
		eng.SpawnDaemon("sqpoll:"+name, r.sqPoller)
	}
	eng.SpawnDaemon("cq-handler:"+name, r.cqHandler)
	return r
}

// Stats returns cumulative ring counters.
func (r *Ring) Stats() Stats { return r.stats }

// SQDepth reports entries waiting for the poller (SQPOLL mode only).
func (r *Ring) SQDepth() int { return len(r.sq) }

// CQDepth reports completions posted but not yet reaped by the CQ handler.
func (r *Ring) CQDepth() int { return r.cq.Len() }

// Submit places an SQE on the ring and returns a signal that fires with a
// *CQE when the command completes. In SQPOLL mode this costs the caller only
// the ring write; otherwise it pays the submission syscall and the kernel
// dispatch inline.
func (r *Ring) Submit(env *sim.Env, sqe *SQE) *sim.Signal {
	sqe.done = sim.NewSignal(r.eng)
	r.stats.Submitted++
	if sqe.Op == OpWrite {
		r.pending = append(r.pending, sqe)
	}
	if tr := r.cfg.Trace; tr.Enabled() {
		parent := sqe.Span
		if parent == 0 {
			parent = tr.Scope()
		}
		sqe.span = tr.Begin("uring", opName(sqe.Op), parent, env.Now())
		tr.SetArg(sqe.span, sqe.pageCount())
		sqe.submitted = env.Now()
	}
	env.Work("ring", r.cfg.RingOverhead)
	if r.cfg.SQPoll {
		r.sq = append(r.sq, sqe)
		r.kick.Notify()
		return sqe.done
	}
	r.stats.Syscalls++
	env.Work("syscall", r.cfg.SubmitSyscall)
	env.Work("dispatch", r.cfg.DispatchCPU)
	r.issue(env.Now(), sqe)
	return sqe.done
}

// SubmitAndWait submits and blocks until completion, returning the CQE.
func (r *Ring) SubmitAndWait(env *sim.Env, sqe *SQE) *CQE {
	done := r.Submit(env, sqe)
	cqe := done.Wait(env).(*CQE)
	env.Work("ring", r.cfg.RingOverhead) // reap
	return cqe
}

// sqPoller is the SQPOLL kernel thread: it notices new SQEs after the pickup
// latency and dispatches them without any syscall from the application.
func (r *Ring) sqPoller(env *sim.Env) {
	for {
		if len(r.sq) == 0 {
			idleFrom := env.Now()
			r.kick.Wait(env)
			r.stats.SQPollIdle += env.Now().Sub(idleFrom)
			continue
		}
		env.Sleep(r.cfg.SQPollPickup)
		for len(r.sq) > 0 {
			sqe := r.sq[0]
			r.sq = r.sq[1:]
			r.stats.SQPollWakes++
			env.Work("dispatch", r.cfg.DispatchCPU)
			r.issue(env.Now(), sqe)
		}
	}
}

// opName maps an opcode to its trace span name.
func opName(op Op) string {
	switch op {
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	case OpDeallocate:
		return "deallocate"
	default:
		return "unknown"
	}
}

// pageCount is the page payload size of the command, for span args.
func (s *SQE) pageCount() int64 {
	if s.Op == OpWrite {
		return int64(len(s.Pages))
	}
	return s.N
}

// issue translates an SQE into device operations and schedules its CQE.
func (r *Ring) issue(now sim.Time, sqe *SQE) {
	tr := r.cfg.Trace
	prev := tr.Scope()
	if sqe.span != 0 {
		tr.Emit("uring", "sq.wait", sqe.span, sqe.submitted, now, 0)
	}
	tr.SetScope(sqe.span)
	defer tr.SetScope(prev)
	switch sqe.Op {
	case OpWrite:
		done, err := r.dev.WritePages(now, sqe.LPA, sqe.Pages, sqe.PID)
		// WritePages has fully consumed the payload (device state mutation,
		// including retries, is synchronous; only timing is deferred), so the
		// ring's references are dropped here — release-on-durable is enforced
		// below this layer by the NAND quarantine on the stored segments.
		r.releasePages(sqe)
		r.complete(done, sqe, &CQE{Err: err, Status: nand.StatusOf(err)})
	case OpRead:
		data, done, err := r.dev.ReadPages(now, sqe.LPA, sqe.N)
		r.complete(done, sqe, &CQE{Err: err, Status: nand.StatusOf(err), Data: data})
	case OpDeallocate:
		err := r.dev.Deallocate(sqe.LPA, sqe.N)
		r.complete(now, sqe, &CQE{Err: err, Status: nand.StatusOf(err)})
	default:
		r.complete(now, sqe, &CQE{Err: fmt.Errorf("uring: unknown opcode %d", sqe.Op), Status: nand.StatusInternal})
	}
}

// complete posts the CQE at time t; the CQ handler daemon fires the waiter.
func (r *Ring) complete(t sim.Time, sqe *SQE, cqe *CQE) {
	sqe.result = cqe
	r.cfg.Trace.End(sqe.span, t)
	r.eng.At(t, func() { r.cq.Push(sqe) })
}

// releasePages drops the ring's references on a consumed write command and
// unregisters it from the pending set.
func (r *Ring) releasePages(sqe *SQE) {
	for i := range sqe.Pages {
		sqe.Pages[i].Release()
		sqe.Pages[i] = bufpool.Ref{}
	}
	for i, p := range r.pending {
		if p == sqe {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			break
		}
	}
}

// DropPending releases payload references of every write command the ring
// still owns — queued in the submission queue or frozen mid-dispatch. Only
// teardown after a simulated power cut calls this: the SQPOLL poller froze
// with the engine, so these commands will never issue and their (lost)
// payloads must be returned to the pool for leak accounting.
func (r *Ring) DropPending() {
	for len(r.pending) > 0 {
		r.releasePages(r.pending[0])
	}
	r.sq = nil
}

// cqHandler drains the completion queue and fires each command's signal.
func (r *Ring) cqHandler(env *sim.Env) {
	for {
		sqe, ok := r.cq.Pop(env)
		if !ok {
			return
		}
		env.Work("ring", r.cfg.RingOverhead)
		r.stats.Completed++
		sqe.done.Fire(sqe.result)
	}
}

// Convenience wrappers for the common commands.

// Write submits a multi-page write and blocks until durable. It takes one
// reference per pooled page (see SQE).
func (r *Ring) Write(env *sim.Env, lpa int64, pages []bufpool.Ref, pid uint32) error {
	cqe := r.SubmitAndWait(env, &SQE{Op: OpWrite, LPA: lpa, Pages: pages, PID: pid})
	return cqe.Err
}

// WriteAsync submits a multi-page write and returns immediately with the
// completion signal (fired with *CQE). It takes one reference per pooled
// page (see SQE).
func (r *Ring) WriteAsync(env *sim.Env, lpa int64, pages []bufpool.Ref, pid uint32) *sim.Signal {
	return r.Submit(env, &SQE{Op: OpWrite, LPA: lpa, Pages: pages, PID: pid})
}

// Read submits a multi-page read and blocks for the data.
func (r *Ring) Read(env *sim.Env, lpa int64, n int64) ([][]byte, error) {
	cqe := r.SubmitAndWait(env, &SQE{Op: OpRead, LPA: lpa, N: n})
	return cqe.Data, cqe.Err
}

// Deallocate submits a TRIM and blocks until acknowledged.
func (r *Ring) Deallocate(env *sim.Env, lpa int64, n int64) error {
	cqe := r.SubmitAndWait(env, &SQE{Op: OpDeallocate, LPA: lpa, N: n})
	return cqe.Err
}
