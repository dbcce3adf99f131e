package sim

import (
	"fmt"
	"iter"
	"sort"
)

// event is a single scheduled occurrence. Exactly one of fn or proc is set:
// fn events run inline in whichever dispatch loop pops them; proc events
// resume (or first start) a process.
type event struct {
	at   Time
	seq  uint64
	fn   func()
	proc *Proc
}

// eventLess orders events by (time, seq). seq is unique per engine, so this
// is a strict total order: execution order is fully determined by the
// schedule, never by queue internals — the root of bit-reproducibility.
func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a 4-ary min-heap of events ordered by (time, seq). A custom
// non-boxing heap (instead of container/heap over an interface) keeps
// push/pop free of interface-conversion allocations — the event queue is the
// hottest data structure in the simulator. 4-ary halves the tree depth
// versus binary, trading slightly more comparisons per level for fewer
// cache-missing swaps on the sift paths.
type eventHeap struct {
	items []event
}

func (h *eventHeap) len() int { return len(h.items) }

func (h *eventHeap) push(ev event) {
	h.items = append(h.items, ev)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !eventLess(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	top := h.items[0]
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	h.items[n] = event{} // release fn/proc references
	h.items = h.items[:n]
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if eventLess(h.items[c], h.items[min]) {
				min = c
			}
		}
		if !eventLess(h.items[min], h.items[i]) {
			break
		}
		h.items[i], h.items[min] = h.items[min], h.items[i]
		i = min
	}
	return top
}

// Engine owns the virtual clock and the event queue. The zero value is not
// usable; construct with NewEngine.
//
// Scheduling model: each process is an iter.Pull coroutine, and one dispatch
// loop (nextProc) pops events in (time, seq) order. The driver — the
// goroutine that called Run/RunUntil — runs it and resumes the process it
// returns; a parking process runs it too, inline: callbacks execute there,
// its own wake-up returns with no switch, and any other process is yielded
// to the driver by name, which resumes it. A handoff is thus two coroutine
// switches on one thread, never a trip through the Go scheduler, and events
// run in exactly the (time, seq) order a central loop would give them.
type Engine struct {
	now  Time
	seq  uint64
	heap eventHeap
	// fifo holds events scheduled for the current timestamp. Scheduling at
	// `now` is the overwhelmingly common case (Resource.Release → waiter,
	// Signal.Fire → waiter, completion → handler), and such events always
	// sort after the heap's same-time entries and before everything later,
	// so a plain ring preserves (time, seq) order while skipping the heap.
	fifo ring[event]

	limit   Time
	limited bool

	procs    map[*Proc]struct{}
	spawnSeq int64
	nprocs   int
	ndaemons int
	stopped  bool
	handoffs uint64
}

// NewEngine returns an empty simulation at time zero.
func NewEngine() *Engine {
	return &Engine{procs: make(map[*Proc]struct{})}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// schedule enqueues an event at t (clamped to now if in the past).
func (e *Engine) schedule(t Time, fn func(), p *Proc) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev := event{at: t, seq: e.seq, fn: fn, proc: p}
	if t == e.now {
		e.fifo.push(ev)
		return
	}
	e.heap.push(ev)
}

// At schedules fn to run at time t (clamped to now if in the past). Callbacks
// run inside whichever dispatch loop pops them and must not block; they may
// schedule further events, fire signals, and release resources.
func (e *Engine) At(t Time, fn func()) { e.schedule(t, fn, nil) }

// After schedules fn to run d from now.
func (e *Engine) After(d Duration, fn func()) { e.At(e.now.Add(d), fn) }

// wakeAt schedules p to be resumed at time t.
func (e *Engine) wakeAt(t Time, p *Proc) { e.schedule(t, nil, p) }

// Spawn creates a process executing fn and schedules it to start now.
// Processes run one at a time; fn must yield only through sim primitives.
func (e *Engine) Spawn(name string, fn func(*Env)) *Proc {
	e.spawnSeq++
	p := &Proc{
		name: name,
		eng:  e,
		fn:   fn,
		seq:  e.spawnSeq,
		Done: NewSignal(e),
	}
	p.next, p.stop = iter.Pull(p.run)
	e.nprocs++
	e.procs[p] = struct{}{}
	e.schedule(e.now, nil, p)
	return p
}

// SpawnDaemon creates a service process (kernel thread, poller) that is
// expected to remain parked forever once the workload drains: it is excluded
// from deadlock detection and simply abandoned when the simulation ends.
func (e *Engine) SpawnDaemon(name string, fn func(*Env)) *Proc {
	p := e.Spawn(name, fn)
	p.daemon = true
	e.ndaemons++
	return p
}

// popNext removes the earliest pending event in (time, seq) order, honoring
// the RunUntil deadline. FIFO entries are always stamped with the current
// time, so they can only lose to same-time heap entries with older sequence
// numbers (scheduled before the clock reached this instant) and are always
// within any active deadline.
func (e *Engine) popNext() (event, bool) {
	if e.fifo.len() > 0 {
		if e.heap.len() > 0 && eventLess(e.heap.items[0], *e.fifo.peek()) {
			return e.heap.pop(), true
		}
		return e.fifo.pop(), true
	}
	if e.heap.len() == 0 {
		return event{}, false
	}
	if e.limited && e.heap.items[0].at > e.limit {
		return event{}, false
	}
	return e.heap.pop(), true
}

// nextProc is the dispatch loop: it pops events in (time, seq) order,
// running callbacks inline, until it meets a live process, which it returns.
// It returns nil when the queue has drained (up to any RunUntil deadline) or
// the engine is stopped.
func (e *Engine) nextProc() *Proc {
	for !e.stopped {
		ev, ok := e.popNext()
		if !ok {
			return nil
		}
		e.now = ev.at
		if ev.proc == nil {
			ev.fn()
			continue
		}
		if !ev.proc.done {
			return ev.proc
		}
	}
	return nil
}

// runLoop drives the simulation from the caller's goroutine: it resumes each
// process nextProc names until a process parks with nothing runnable or the
// loop itself finds none. A process that panics, in its body or in a
// callback it ran while parking, re-panics here, at the caller of Run or
// RunUntil.
func (e *Engine) runLoop() {
	for p := e.nextProc(); p != nil; {
		q, ok := p.next()
		if !ok { // p's body returned
			q = e.nextProc()
		}
		p = q
	}
}

// Run executes events until the queue drains or Stop is called, and returns
// the final virtual time. Processes still parked when the queue drains are
// considered deadlocked and cause a panic naming them, since that always
// indicates a modelling bug.
func (e *Engine) Run() Time {
	e.runLoop()
	if live := e.nprocs - e.ndaemons; !e.stopped && live > 0 {
		panic(fmt.Sprintf("sim: event queue drained with %d non-daemon process(es) still parked (deadlock)", live))
	}
	return e.now
}

// RunUntil executes events with timestamps <= deadline, then stops with the
// clock at the deadline. Parked processes are left in place so the caller can
// inspect state mid-flight; Run or RunUntil can be called again to continue.
func (e *Engine) RunUntil(deadline Time) Time {
	e.limit, e.limited = deadline, true
	e.runLoop()
	e.limited = false
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// Stop halts the event loop after the current event. Parked processes stay
// parked until Shutdown unwinds them. Intended for open-ended scenarios with
// a fixed observation window.
func (e *Engine) Stop() { e.stopped = true }

// Handoffs reports how many times a parking process has yielded to another
// process (or to the driver) instead of finding its own wake-up next: the
// coroutine switches the schedule cost, a host-speed measure that does not
// depend on the machine.
func (e *Engine) Handoffs() uint64 { return e.handoffs }

// Pending reports the number of scheduled events, useful in tests.
func (e *Engine) Pending() int { return e.heap.len() + e.fifo.len() }

// Shutdown tears the simulation down: every parked process is unwound (its
// park returns into an internal panic), so nothing keeps the simulated world
// reachable afterwards. Call it once a run is finished and its results
// extracted; the engine must not be used again. Experiment harnesses rely on
// this to avoid leaking a whole simulated device per run through parked
// coroutine stacks.
func (e *Engine) Shutdown() {
	e.stopped = true
	// Collect first: unwinding mutates e.procs. Unwind in spawn order, not
	// map order, so teardown (and anything a process does while dying) is
	// as deterministic as the run itself.
	parked := make([]*Proc, 0, len(e.procs))
	for p := range e.procs {
		parked = append(parked, p)
	}
	sort.Slice(parked, func(i, j int) bool { return parked[i].seq < parked[j].seq })
	for _, p := range parked {
		// A process that never started stops without running; one that
		// already ended (or panicked) stops as a no-op.
		p.stop()
	}
}
