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

// op is a passthru command opcode.
type op int

const (
	// opWrite writes consecutive pages at an LPA with a placement ID.
	opWrite op = iota
	// opRead reads consecutive pages from an LPA.
	opRead
	// opDeallocate TRIMs a page range.
	opDeallocate
)

// SQE is a submission-queue entry (one passthru NVMe command) in a slot the
// ring owns. WriteAsync and ReadAsync hand a slot out; Reap waits for its
// completion, returns the CQE and gives the slot back to the ring, after
// which the caller must not use it again. A slot keeps its CQE, completion
// signal and post callback from one command to the next, so a command
// allocates nothing once the ring has a slot for each command in flight.
//
// Ownership: a write takes one reference per pooled page in its page list,
// which is copied into the slot (the caller may reuse the list at once). The
// ring releases each after the device has consumed the command (the NAND
// layer retains what it stores), so a caller that wants to keep using a
// segment past submission must Retain its own reference first.
type SQE struct {
	op    op
	lpa   int64
	pages []bufpool.Ref // opWrite: page payloads
	n     int64         // opRead / opDeallocate: page count
	pid   uint32        // FDP placement identifier

	ring   *Ring
	done   *sim.Signal
	cqe    CQE
	post   func() // ring.post(this slot), bound once
	next   *SQE   // free-list link
	inUse  bool   // handed out and not yet reaped
	span   vtrace.SpanID
	queued sim.Time // submission time, for the sq.wait span
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
//
// The paper's dedicated CQ-handling thread is two engine callbacks, not a
// process. A posted completion joins the CQ and, if the handler is idle,
// schedules take at the same instant; take schedules fire one RingOverhead
// later; fire completes the command's signal and calls take for the next
// queued completion, if any, as a handler thread that finds the CQ non-empty
// goes on without sleeping. Each callback takes the (time, seq) slot of the
// handler thread's wake-up or work sleep it stands for, so every event order
// is that of a handler process, without its two coroutine switches per
// completion.
type Ring struct {
	eng    *sim.Engine
	dev    *ssd.Device
	cfg    Config
	sq     []*SQE
	sqHead int // sq[sqHead:] waits for the poller
	kick   *sim.Broadcast
	stats  Stats

	// cq holds posted completions the handler has not taken up yet, and
	// handling is the one whose fire is scheduled (nil: none is).
	cq             *sim.Queue[*SQE]
	handling       *SQE
	takeCB, fireCB func() // r.take and r.fire, bound once

	free *SQE // recycled slots, linked through SQE.next

	// pending registers every accepted write command whose page references
	// the ring still owns. Registration happens at submit entry — before any
	// simulated wait — so a power cut frozen anywhere in the submission or
	// dispatch path leaves the references reachable for DropPending. The
	// window is at most the ring depth, so linear removal stays cheap.
	pending []*SQE
}

// NewRing creates a ring over dev. With cfg.SQPoll a kernel poller daemon is
// spawned.
func NewRing(eng *sim.Engine, dev *ssd.Device, name string, cfg Config) *Ring {
	cfg.fillDefaults()
	r := &Ring{
		eng:  eng,
		dev:  dev,
		cfg:  cfg,
		cq:   sim.NewQueue[*SQE](eng),
		kick: sim.NewBroadcast(eng),
	}
	r.takeCB, r.fireCB = r.take, r.fire
	if cfg.SQPoll {
		eng.SpawnDaemon("sqpoll:"+name, r.sqPoller)
	}
	return r
}

// Stats returns cumulative ring counters.
func (r *Ring) Stats() Stats { return r.stats }

// SQDepth reports entries waiting for the poller (SQPOLL mode only).
func (r *Ring) SQDepth() int { return len(r.sq) - r.sqHead }

// CQDepth reports completions posted but not yet taken up by the CQ handler.
func (r *Ring) CQDepth() int { return r.cq.Len() }

// slot hands out a free slot (a new one when none is free) set up for one
// command.
func (r *Ring) slot(o op, lpa, n int64, pid uint32) *SQE {
	sqe := r.free
	if sqe == nil {
		sqe = &SQE{ring: r, done: sim.NewSignal(r.eng)}
		sqe.post = func() { r.post(sqe) }
	} else {
		r.free, sqe.next = sqe.next, nil
	}
	sqe.op, sqe.lpa, sqe.n, sqe.pid, sqe.inUse = o, lpa, n, pid, true
	return sqe
}

// submit places a slot's command on the ring. In SQPOLL mode this costs the
// caller only the ring write; otherwise it pays the submission syscall and
// the kernel dispatch inline.
func (r *Ring) submit(env *sim.Env, sqe *SQE) *SQE {
	r.stats.Submitted++
	if sqe.op == opWrite {
		r.pending = append(r.pending, sqe)
	}
	if tr := r.cfg.Trace; tr.Enabled() {
		sqe.span = tr.Begin("uring", opName(sqe.op), tr.Scope(), env.Now())
		tr.SetArg(sqe.span, sqe.pageCount())
		sqe.queued = env.Now()
	}
	env.Work("ring", r.cfg.RingOverhead)
	if r.cfg.SQPoll {
		r.sq = append(r.sq, sqe)
		r.kick.Notify()
		return sqe
	}
	r.stats.Syscalls++
	env.Work("syscall", r.cfg.SubmitSyscall)
	env.Work("dispatch", r.cfg.DispatchCPU)
	r.issue(env.Now(), sqe)
	return sqe
}

// Reap blocks until sqe's command completes, returns its CQE and recycles
// the slot: the caller must not use sqe afterwards. Reaping a slot that is
// not in flight on r — one already reaped — panics, like a double Release.
func (r *Ring) Reap(env *sim.Env, sqe *SQE) CQE {
	if sqe.ring != r || !sqe.inUse {
		panic("uring: Reap of a slot that is not in flight on this ring")
	}
	sqe.done.Wait(env)
	cqe := sqe.cqe
	sqe.inUse = false
	sqe.done.Reset()
	sqe.cqe, sqe.span = CQE{}, 0
	sqe.pages = sqe.pages[:0]
	sqe.next, r.free = r.free, sqe
	return cqe
}

// submitAndWait submits a slot's command, blocks until completion and pays
// the user-space reap.
func (r *Ring) submitAndWait(env *sim.Env, sqe *SQE) CQE {
	cqe := r.Reap(env, r.submit(env, sqe))
	env.Work("ring", r.cfg.RingOverhead) // reap
	return cqe
}

// sqPoller is the SQPOLL kernel thread: it notices new SQEs after the pickup
// latency and dispatches them without any syscall from the application.
func (r *Ring) sqPoller(env *sim.Env) {
	for {
		if r.SQDepth() == 0 {
			idleFrom := env.Now()
			r.kick.Wait(env)
			r.stats.SQPollIdle += env.Now().Sub(idleFrom)
			continue
		}
		env.Sleep(r.cfg.SQPollPickup)
		for r.sqHead < len(r.sq) {
			sqe := r.sq[r.sqHead]
			r.sq[r.sqHead] = nil
			r.sqHead++
			r.stats.SQPollWakes++
			env.Work("dispatch", r.cfg.DispatchCPU)
			r.issue(env.Now(), sqe)
		}
		r.sq, r.sqHead = r.sq[:0], 0
	}
}

// opName maps an opcode to its trace span name.
func opName(o op) string {
	switch o {
	case opWrite:
		return "write"
	case opRead:
		return "read"
	case opDeallocate:
		return "deallocate"
	default:
		return "unknown"
	}
}

// pageCount is the page payload size of the command, for span args.
func (s *SQE) pageCount() int64 {
	if s.op == opWrite {
		return int64(len(s.pages))
	}
	return s.n
}

// issue translates an SQE into device operations and schedules its CQE.
func (r *Ring) issue(now sim.Time, sqe *SQE) {
	tr := r.cfg.Trace
	prev := tr.Scope()
	if sqe.span != 0 {
		tr.Emit("uring", "sq.wait", sqe.span, sqe.queued, now, 0)
	}
	tr.SetScope(sqe.span)
	defer tr.SetScope(prev)
	switch sqe.op {
	case opWrite:
		done, err := r.dev.WritePages(now, sqe.lpa, sqe.pages, sqe.pid)
		// WritePages has fully consumed the payload (device state mutation,
		// including retries, is synchronous; only timing is deferred), so the
		// ring's references are dropped here — release-on-durable is enforced
		// below this layer by the NAND quarantine on the stored segments.
		r.releasePages(sqe)
		r.complete(done, sqe, CQE{Err: err, Status: nand.StatusOf(err)})
	case opRead:
		data, done, err := r.dev.ReadPages(now, sqe.lpa, sqe.n)
		r.complete(done, sqe, CQE{Err: err, Status: nand.StatusOf(err), Data: data})
	case opDeallocate:
		err := r.dev.Deallocate(sqe.lpa, sqe.n)
		r.complete(now, sqe, CQE{Err: err, Status: nand.StatusOf(err)})
	default:
		r.complete(now, sqe, CQE{Err: fmt.Errorf("uring: unknown opcode %d", sqe.op), Status: nand.StatusInternal})
	}
}

// complete records the CQE and schedules its post at time t.
func (r *Ring) complete(t sim.Time, sqe *SQE, cqe CQE) {
	sqe.cqe = cqe
	r.cfg.Trace.End(sqe.span, t)
	r.eng.At(t, sqe.post)
}

// post appends a completion to the CQ and, when the handler is idle (it
// holds no completion and none was queued for it), schedules its wake-up at
// once, as the push would have woken a handler thread.
func (r *Ring) post(sqe *SQE) {
	r.cq.Push(sqe)
	if r.handling == nil && r.cq.Len() == 1 {
		r.eng.At(r.eng.Now(), r.takeCB)
	}
}

// take is the handler's wake-up and the tail of each fire that finds the CQ
// non-empty: it moves the oldest posted completion to the handler and
// schedules its fire one RingOverhead later, the handler's reap work.
func (r *Ring) take() {
	r.handling, _ = r.cq.TryPop()
	r.eng.At(r.eng.Now().Add(r.cfg.RingOverhead), r.fireCB)
}

// fire completes the handled command's signal, then takes the next posted
// completion inline or leaves the handler idle.
func (r *Ring) fire() {
	sqe := r.handling
	r.handling = nil
	r.stats.Completed++
	sqe.done.Fire(nil)
	if r.cq.Len() > 0 {
		r.take()
	}
}

// releasePages drops the ring's references on a consumed write command and
// unregisters it from the pending set.
func (r *Ring) releasePages(sqe *SQE) {
	for i := range sqe.pages {
		sqe.pages[i].Release()
		sqe.pages[i] = bufpool.Ref{}
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
	r.sq, r.sqHead = nil, 0
}

// Write submits a multi-page write and blocks until durable. It takes one
// reference per pooled page (see SQE).
func (r *Ring) Write(env *sim.Env, lpa int64, pages []bufpool.Ref, pid uint32) error {
	return r.submitAndWait(env, r.writeSlot(lpa, pages, pid)).Err
}

// WriteAsync submits a multi-page write and returns its slot at once; Reap
// waits for the completion. It takes one reference per pooled page (see
// SQE).
func (r *Ring) WriteAsync(env *sim.Env, lpa int64, pages []bufpool.Ref, pid uint32) *SQE {
	return r.submit(env, r.writeSlot(lpa, pages, pid))
}

// writeSlot is a write command's slot, holding its own copy of the page list.
func (r *Ring) writeSlot(lpa int64, pages []bufpool.Ref, pid uint32) *SQE {
	sqe := r.slot(opWrite, lpa, 0, pid)
	sqe.pages = append(sqe.pages, pages...)
	return sqe
}

// Read submits a multi-page read and blocks for the data.
func (r *Ring) Read(env *sim.Env, lpa int64, n int64) ([][]byte, error) {
	cqe := r.submitAndWait(env, r.slot(opRead, lpa, n, 0))
	return cqe.Data, cqe.Err
}

// ReadAsync submits a multi-page read and returns its slot at once; Reap
// waits for the completion, whose Data holds the pages.
func (r *Ring) ReadAsync(env *sim.Env, lpa int64, n int64) *SQE {
	return r.submit(env, r.slot(opRead, lpa, n, 0))
}

// Deallocate submits a TRIM and blocks until acknowledged.
func (r *Ring) Deallocate(env *sim.Env, lpa int64, n int64) error {
	return r.submitAndWait(env, r.slot(opDeallocate, lpa, n, 0)).Err
}
