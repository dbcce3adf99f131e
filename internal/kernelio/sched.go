package kernelio

import (
	"github.com/slimio/slimio/internal/bufpool"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/ssd"
	"github.com/slimio/slimio/internal/vtrace"
)

// SchedMode selects the block-layer scheduling policy.
type SchedMode int

const (
	// SchedNone dispatches strictly FIFO (the paper sets the baseline's
	// scheduler to 'none').
	SchedNone SchedMode = iota
	// SchedSyncPriority dispatches synchronous requests (fsync, O_SYNC,
	// reads) ahead of asynchronous writeback, as BFQ/mq-deadline style
	// schedulers do — the behaviour §4 notes can deprioritize snapshot
	// writes indefinitely.
	SchedSyncPriority
)

func (m SchedMode) String() string {
	if m == SchedSyncPriority {
		return "sync-priority"
	}
	return "none"
}

// Request is one block-layer write request: a batch of pages bound for the
// device. Done fires with nil or an error when the device completes it.
//
// Ownership: Submit transfers one reference per pooled page payload to the
// scheduler, which releases each once the device has consumed the request
// (the NAND layer retains what it stores). Callers never free request
// payloads themselves.
type Request struct {
	Pages []ssd.PageWrite
	Sync  bool
	Done  *sim.Signal

	submitted sim.Time
	seq       uint64
	span      vtrace.SpanID // parent captured from the tracer scope at Submit
}

// SchedStats aggregates scheduler counters.
type SchedStats struct {
	Dispatched     int64
	SyncDispatched int64
	QueueWait      sim.Duration // total time requests sat in the dispatch queue
}

// Scheduler is the block-layer dispatch stage: a single kernel thread that
// pulls requests off the staging queues, pays per-request dispatch CPU, and
// issues them to the device. Device-side queueing happens on the NAND
// timelines; this stage models software queue ordering and its overhead.
type Scheduler struct {
	eng   *sim.Engine
	dev   *ssd.Device
	mode  SchedMode
	costs Costs

	syncQ   []*Request
	asyncQ  []*Request
	kick    *sim.Broadcast
	stats   SchedStats
	nextSeq uint64
	trace   *vtrace.Tracer

	// live tracks requests whose page payloads the scheduler still owns:
	// staged in a queue, or picked but not yet consumed by the device. The
	// window is small (bounded by writeback queue depth), so the linear
	// removal below stays cheap.
	live []*Request
}

// releasePages drops the scheduler's ownership of req's page payloads.
func (s *Scheduler) releasePages(req *Request) {
	for i := range req.Pages {
		req.Pages[i].Data.Release()
		req.Pages[i].Data = bufpool.Ref{}
	}
	for i, r := range s.live {
		if r == req {
			s.live = append(s.live[:i], s.live[i+1:]...)
			break
		}
	}
}

// DropPending releases the page payloads of every request the scheduler
// still owns — staged or frozen mid-dispatch by a simulated power cut.
// Teardown only.
func (s *Scheduler) DropPending() {
	for len(s.live) > 0 {
		s.releasePages(s.live[0])
	}
	s.syncQ, s.asyncQ = nil, nil
}

// SetTracer installs a tracer recording one sched/dispatch span per request
// (staged → device done) with a queue.wait child. Nil disables tracing.
func (s *Scheduler) SetTracer(t *vtrace.Tracer) { s.trace = t }

// NewScheduler starts the dispatch process on eng.
func NewScheduler(eng *sim.Engine, dev *ssd.Device, mode SchedMode, costs Costs) *Scheduler {
	s := &Scheduler{eng: eng, dev: dev, mode: mode, costs: costs, kick: sim.NewBroadcast(eng)}
	eng.SpawnDaemon("kblockd", s.run)
	return s
}

// Submit stages a request for dispatch and returns it. The caller waits on
// req.Done for completion. Callable from processes and callbacks.
func (s *Scheduler) Submit(pages []ssd.PageWrite, sync bool) *Request {
	req := &Request{Pages: pages, Sync: sync, Done: sim.NewSignal(s.eng), submitted: s.eng.Now(), seq: s.nextSeq, span: s.trace.Scope()}
	s.nextSeq++
	s.live = append(s.live, req)
	if sync {
		s.syncQ = append(s.syncQ, req)
	} else {
		s.asyncQ = append(s.asyncQ, req)
	}
	s.kick.Notify()
	return req
}

// Stats returns cumulative scheduler counters.
func (s *Scheduler) Stats() SchedStats { return s.stats }

func (s *Scheduler) pick() *Request {
	switch s.mode {
	case SchedSyncPriority:
		if len(s.syncQ) > 0 {
			req := s.syncQ[0]
			s.syncQ = s.syncQ[1:]
			return req
		}
		if len(s.asyncQ) > 0 {
			req := s.asyncQ[0]
			s.asyncQ = s.asyncQ[1:]
			return req
		}
	default: // SchedNone: strict FIFO across both queues by submit time
		switch {
		case len(s.syncQ) > 0 && len(s.asyncQ) > 0:
			if s.syncQ[0].seq <= s.asyncQ[0].seq {
				req := s.syncQ[0]
				s.syncQ = s.syncQ[1:]
				return req
			}
			req := s.asyncQ[0]
			s.asyncQ = s.asyncQ[1:]
			return req
		case len(s.syncQ) > 0:
			req := s.syncQ[0]
			s.syncQ = s.syncQ[1:]
			return req
		case len(s.asyncQ) > 0:
			req := s.asyncQ[0]
			s.asyncQ = s.asyncQ[1:]
			return req
		}
	}
	return nil
}

func (s *Scheduler) run(env *sim.Env) {
	for {
		req := s.pick()
		if req == nil {
			s.kick.Wait(env)
			continue
		}
		s.stats.Dispatched++
		if req.Sync {
			s.stats.SyncDispatched++
		}
		s.stats.QueueWait += env.Now().Sub(req.submitted)
		tr := s.trace
		var span vtrace.SpanID
		if tr.Enabled() {
			span = tr.Begin("sched", "dispatch", req.span, req.submitted)
			tr.SetArg(span, int64(len(req.Pages)))
			tr.Emit("sched", "queue.wait", span, req.submitted, env.Now(), 0)
		}
		env.Work("dispatch", s.costs.DispatchCPU)
		prev := tr.Scope()
		tr.SetScope(span)
		done, err := s.dev.WriteScattered(env.Now(), req.Pages)
		tr.SetScope(prev)
		// The device has consumed the payloads (state mutation is
		// synchronous; only completion timing is deferred).
		s.releasePages(req)
		if err != nil {
			tr.End(span, env.Now())
			req.Done.Fire(err)
			continue
		}
		tr.End(span, done)
		env.Engine().At(done, func() { req.Done.Fire(nil) })
	}
}
