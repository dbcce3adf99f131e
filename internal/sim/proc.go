package sim

// Proc is a simulation process: an iter.Pull coroutine that the engine
// resumes one at a time. A Proc is created with Engine.Spawn and runs until
// its body returns.
type Proc struct {
	name string // given at Spawn; read only from a debugger or a goroutine dump
	eng  *Engine
	fn   func(*Env)
	seq  int64 // spawn order, the deterministic teardown ordering
	// next resumes the coroutine until it parks, returning the process it
	// hands off to (nil: none runnable), or ok=false once the body returned.
	// stop unwinds a parked coroutine. yield is the coroutine's side of next.
	next   func() (*Proc, bool)
	stop   func()
	yield  func(*Proc) bool
	done   bool
	daemon bool

	// Done fires (with a nil value) when the process body returns.
	Done *Signal

	// busy accumulates virtual CPU time billed via Env.Work, one row per
	// tag. Experiments use it to report per-component CPU shares (e.g. the
	// filesystem write-path share of the snapshot process, Table 2 of the
	// paper). A process bills a handful of tags, so a linear scan beats a
	// map lookup on every Work.
	busy []busyTag
}

// busyTag is one tag's billed CPU time.
type busyTag struct {
	tag string
	d   Duration
}

// procKilled is the panic value park raises when Shutdown stops a parked
// process, unwinding its body through its deferred calls.
type procKilled struct{}

// run is the coroutine body, entered on the first resume. On return —
// normal or via the Shutdown unwind — it does the termination bookkeeping;
// any other panic propagates to the caller of next.
func (p *Proc) run(yield func(*Proc) bool) {
	e := p.eng
	p.yield = yield
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procKilled); !ok {
				panic(r)
			}
		}
		p.done = true
		e.nprocs--
		if p.daemon {
			e.ndaemons--
		}
		delete(e.procs, p)
		if !p.Done.Fired() {
			p.Done.Fire(nil)
		}
	}()
	p.fn(&Env{p: p, eng: e})
}

// BusyTime reports the virtual CPU time billed under tag via Env.Work.
func (p *Proc) BusyTime(tag string) Duration {
	for _, b := range p.busy {
		if b.tag == tag {
			return b.d
		}
	}
	return 0
}

// bill adds d to tag's row, appending the row on the tag's first bill.
func (p *Proc) bill(tag string, d Duration) {
	for i := range p.busy {
		if p.busy[i].tag == tag {
			p.busy[i].d += d
			return
		}
	}
	p.busy = append(p.busy, busyTag{tag, d})
}

// Env is the handle a process body uses to interact with the simulation. It
// is valid only inside the process it was created for.
type Env struct {
	p   *Proc
	eng *Engine
}

// Engine returns the engine this process runs on.
func (env *Env) Engine() *Engine { return env.eng }

// Proc returns the process this Env belongs to.
func (env *Env) Proc() *Proc { return env.p }

// Now reports the current virtual time.
func (env *Env) Now() Time { return env.eng.now }

// park suspends this process until some event resumes it. The caller must
// already have arranged for a wake-up (a scheduled event, a resource grant,
// a signal subscription, ...). park runs the dispatch loop itself: if the
// next process is this one it returns at once, with no switch; otherwise it
// yields that process (or nil) to the driver.
func (env *Env) park() {
	p := env.p
	q := env.eng.nextProc()
	if q == p {
		return
	}
	env.eng.handoffs++
	if !p.yield(q) {
		panic(procKilled{})
	}
}

// Sleep advances this process by d of virtual time, yielding to other
// events. Non-positive durations still yield once, at the current time,
// which gives other same-timestamp events a chance to run.
func (env *Env) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	env.eng.wakeAt(env.eng.now.Add(d), env.p)
	env.park()
}

// Work sleeps for d and bills it as CPU time under tag on this process.
// It models the process actively computing (as opposed to waiting on I/O).
func (env *Env) Work(tag string, d Duration) {
	if d > 0 {
		env.p.bill(tag, d)
	}
	env.Sleep(d)
}

// Yield lets every other event already scheduled for the current timestamp
// run before this process continues.
func (env *Env) Yield() { env.Sleep(0) }

// Spawn starts a child process on the same engine.
func (env *Env) Spawn(name string, fn func(*Env)) *Proc {
	return env.eng.Spawn(name, fn)
}
