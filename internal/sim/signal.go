package sim

// Signal is a one-shot event carrying an optional value. Any number of
// processes may Wait on it; Fire releases them all (in wait order) and makes
// every later Wait return immediately. Alternatively a single callback may
// take the waiter's place (Then). Fire may be called from a process or from
// an engine callback.
type Signal struct {
	eng   *Engine
	fired bool
	val   any
	// w0 inlines the first waiter: almost every Signal (request completion,
	// Proc.Done) has exactly one, and the inline slot means the common case
	// never allocates a waiter slice.
	w0   *Proc
	more []*Proc
	// then is the callback waiter registered by Then, the only waiter when
	// set.
	then func()
}

// NewSignal returns an unfired signal bound to eng.
func NewSignal(eng *Engine) *Signal { return &Signal{eng: eng} }

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// Value reports the value the signal fired with (nil before Fire).
func (s *Signal) Value() any { return s.val }

// Fire marks the signal fired and wakes all waiters. Firing twice panics:
// a Signal models a one-shot completion, and double completion is a bug.
func (s *Signal) Fire(val any) {
	if s.fired {
		panic("sim: Signal fired twice")
	}
	s.fired = true
	s.val = val
	if s.then != nil {
		s.eng.At(s.eng.now, s.then)
		s.then = nil
		return
	}
	if s.w0 != nil {
		s.eng.wakeAt(s.eng.now, s.w0)
		s.w0 = nil
	}
	for _, p := range s.more {
		s.eng.wakeAt(s.eng.now, p)
	}
	s.more = nil
}

// Wait blocks the calling process until the signal fires and returns the
// fired value. Returns immediately if already fired.
func (s *Signal) Wait(env *Env) any {
	if s.fired {
		return s.val
	}
	if s.then != nil {
		panic("sim: Wait on a Signal that has a Then callback")
	}
	if s.w0 == nil && len(s.more) == 0 {
		s.w0 = env.p
	} else {
		s.more = append(s.more, env.p)
	}
	env.park()
	return s.val
}

// Reset returns a fired signal to unfired, so that its owner can reuse it for
// its next completion instead of allocating a new one. It panics on a signal
// that has not fired, whose waiters are still registered; Fire clears them
// and no waiter registers on a fired signal. A parked waiter reads the value
// only when it resumes, though, so the owner resets only once its own Wait
// has returned or its Then callback runs.
func (s *Signal) Reset() {
	if !s.fired {
		panic("sim: Reset of a Signal that has not fired")
	}
	s.fired, s.val = false, nil
}

// Then registers fn as the signal's only waiter: Fire schedules it at the
// firing instant, in the very (time, seq) slot a parked waiter's wake-up
// would take, so swapping a process that Waits for a callback leaves the
// event order untouched while saving the two coroutine switches of the
// process's park and resume. fn runs inside the dispatch loop, like any
// Engine.At callback, and reads the fired value with Value. On a fired
// signal fn runs at once, as Wait would return at once. Registering a
// second waiter of either kind panics.
func (s *Signal) Then(fn func()) {
	if s.fired {
		fn()
		return
	}
	if s.then != nil || s.w0 != nil || len(s.more) > 0 {
		panic("sim: Then on a Signal that already has a waiter")
	}
	s.then = fn
}

// Broadcast is a reusable condition: processes Wait, and each Notify wakes
// every process currently waiting. Unlike Signal it never latches.
type Broadcast struct {
	eng     *Engine
	waiters []*Proc
}

// NewBroadcast returns a Broadcast bound to eng.
func NewBroadcast(eng *Engine) *Broadcast { return &Broadcast{eng: eng} }

// Wait parks the calling process until the next Notify.
func (b *Broadcast) Wait(env *Env) {
	b.waiters = append(b.waiters, env.p)
	env.park()
}

// Notify wakes every currently waiting process. The backing array is kept
// for reuse: wake-ups are queued events, so no waiter re-registers before
// the loop finishes.
func (b *Broadcast) Notify() {
	for _, p := range b.waiters {
		b.eng.wakeAt(b.eng.now, p)
	}
	b.waiters = b.waiters[:0]
}

// Queue is an unbounded FIFO message queue between processes, the virtual-
// time analogue of a Go channel. Push never blocks; Pop blocks the caller
// while the queue is empty.
type Queue[T any] struct {
	eng     *Engine
	items   ring[T]
	waiters ring[*Proc]
	closed  bool
}

// NewQueue returns an empty queue bound to eng.
func NewQueue[T any](eng *Engine) *Queue[T] { return &Queue[T]{eng: eng} }

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return q.items.len() }

// Push appends an item and wakes one waiter, if any. Push may be called from
// a process or from an engine callback. Pushing to a closed queue panics.
func (q *Queue[T]) Push(item T) {
	if q.closed {
		panic("sim: push to closed Queue")
	}
	q.items.push(item)
	q.wakeOne()
}

// Close marks the queue closed: queued items can still be popped, and
// further Pops return ok=false. All current waiters are woken.
func (q *Queue[T]) Close() {
	q.closed = true
	for q.waiters.len() > 0 {
		q.wakeOne()
	}
}

func (q *Queue[T]) wakeOne() {
	if q.waiters.len() == 0 {
		return
	}
	q.eng.wakeAt(q.eng.now, q.waiters.pop())
}

// Pop removes and returns the oldest item, blocking while the queue is
// empty. It returns ok=false only when the queue is closed and drained.
func (q *Queue[T]) Pop(env *Env) (item T, ok bool) {
	for q.items.len() == 0 {
		if q.closed {
			return item, false
		}
		q.waiters.push(env.p)
		env.park()
	}
	return q.items.pop(), true
}

// TryPop removes and returns the oldest item without blocking.
func (q *Queue[T]) TryPop() (item T, ok bool) {
	if q.items.len() == 0 {
		return item, false
	}
	return q.items.pop(), true
}
