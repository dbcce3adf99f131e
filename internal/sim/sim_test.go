package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("final time = %v, want 30", e.Now())
	}
}

func TestSameTimestampFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-timestamp events ran out of order: %v", got)
		}
	}
}

func TestPastEventClampsToNow(t *testing.T) {
	e := NewEngine()
	ran := false
	e.At(100, func() {
		e.At(50, func() { // in the past; must run at t=100, not 50
			if e.Now() != 100 {
				t.Errorf("past event ran at %v, want 100", e.Now())
			}
			ran = true
		})
	})
	e.Run()
	if !ran {
		t.Fatal("past event never ran")
	}
}

func TestProcessSleep(t *testing.T) {
	e := NewEngine()
	var wake Time
	e.Spawn("sleeper", func(env *Env) {
		env.Sleep(5 * Microsecond)
		wake = env.Now()
	})
	e.Run()
	if wake != Time(5*Microsecond) {
		t.Fatalf("woke at %v, want 5µs", wake)
	}
}

func TestInterleavedProcesses(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.Spawn("a", func(env *Env) {
		for i := 0; i < 3; i++ {
			env.Sleep(10)
			trace = append(trace, fmt.Sprintf("a@%d", env.Now()))
		}
	})
	e.Spawn("b", func(env *Env) {
		for i := 0; i < 2; i++ {
			env.Sleep(15)
			trace = append(trace, fmt.Sprintf("b@%d", env.Now()))
		}
	})
	e.Run()
	// At t=30 both wake; b scheduled its wake first (at t=15), so it runs first.
	want := []string{"a@10", "b@15", "a@20", "b@30", "a@30"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var trace []string
		r := NewResource(e, 1)
		for i := 0; i < 5; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(env *Env) {
				env.Sleep(Duration(i % 2)) // two start waves
				r.Acquire(env)
				env.Sleep(7)
				trace = append(trace, fmt.Sprintf("%d@%d", i, env.Now()))
				r.Release()
			})
		}
		e.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic lengths: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic traces:\n%v\n%v", a, b)
		}
	}
}

func TestWorkBilling(t *testing.T) {
	e := NewEngine()
	p := e.Spawn("worker", func(env *Env) {
		env.Work("fs", 30*Microsecond)
		env.Work("compress", 70*Microsecond)
		env.Work("fs", 10*Microsecond)
		env.Sleep(100 * Microsecond) // idle, not billed
	})
	e.Run()
	if got := p.BusyTime("fs"); got != 40*Microsecond {
		t.Errorf("fs busy = %v, want 40µs", got)
	}
	if got := p.BusyTime("compress"); got != 70*Microsecond {
		t.Errorf("compress busy = %v, want 70µs", got)
	}
	var total Duration
	for _, b := range p.busy {
		total += b.d
	}
	if total != 110*Microsecond {
		t.Errorf("total busy = %v, want 110µs", total)
	}
}

func TestResourceMutexFIFO(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		e.Spawn(fmt.Sprintf("p%d", i), func(env *Env) {
			env.Sleep(Duration(i)) // arrival order 0,1,2,3
			r.Acquire(env)
			order = append(order, i)
			env.Sleep(100)
			r.Release()
		})
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("grant order = %v, want FIFO", order)
		}
	}
	if r.inUse != 0 {
		t.Errorf("resource still held: inUse=%d", r.inUse)
	}
}

func TestResourceCapacity(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 2)
	var concurrent, peak int
	for i := 0; i < 6; i++ {
		e.Spawn("p", func(env *Env) {
			r.Acquire(env)
			concurrent++
			if concurrent > peak {
				peak = concurrent
			}
			env.Sleep(10)
			concurrent--
			r.Release()
		})
	}
	e.Run()
	if peak != 2 {
		t.Fatalf("peak concurrency = %d, want 2", peak)
	}
}

func TestReleaseUnacquiredPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e := NewEngine()
	NewResource(e, 1).Release()
}

func TestSignal(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	var got []any
	for i := 0; i < 3; i++ {
		e.Spawn("waiter", func(env *Env) { got = append(got, s.Wait(env)) })
	}
	e.Spawn("firer", func(env *Env) {
		env.Sleep(50)
		s.Fire(42)
	})
	e.Run()
	if len(got) != 3 {
		t.Fatalf("got %d wakeups, want 3", len(got))
	}
	for _, v := range got {
		if v != 42 {
			t.Fatalf("value = %v, want 42", v)
		}
	}
	// Waiting after the fire returns immediately.
	e2 := NewEngine()
	s2 := NewSignal(e2)
	s2.Fire("x")
	var after any
	e2.Spawn("late", func(env *Env) { after = s2.Wait(env) })
	e2.Run()
	if after != "x" {
		t.Fatalf("late wait = %v, want x", after)
	}
}

// thenTwinLog runs one schedule in which a client takes four replies from a
// server, and returns the (time, actor) log. With useThen the client is a
// chain of callbacks on Signal.Then; without, a process that Waits. The
// server queues callbacks just before and just after each Fire, so the log
// pins the client's resumption to the waiter's (time, seq) slot; the last
// signal fires before the client reaches it.
func thenTwinLog(useThen bool) []string {
	e := NewEngine()
	var log []string
	logf := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%d %s", e.Now(), fmt.Sprintf(format, args...)))
	}
	sigs := make([]*Signal, 4)
	for i := range sigs {
		sigs[i] = NewSignal(e)
	}
	if useThen {
		var step func(i int)
		step = func(i int) {
			if i == len(sigs) {
				return
			}
			s := sigs[i]
			s.Then(func() {
				logf("client got %v", s.Value())
				e.After(3, func() {
					logf("client slept")
					step(i + 1)
				})
			})
		}
		e.At(e.Now(), func() { step(0) })
	} else {
		e.Spawn("client", func(env *Env) {
			for _, s := range sigs {
				logf("client got %v", s.Wait(env))
				env.Sleep(3)
				logf("client slept")
			}
		})
	}
	e.Spawn("server", func(env *Env) {
		sigs[3].Fire(3)
		for i := 0; i < 3; i++ {
			env.Sleep(10)
			e.At(env.Now(), func() { logf("queued before fire") })
			sigs[i].Fire(i)
			logf("server fired %d", i)
			e.At(env.Now(), func() { logf("queued after fire") })
			env.Yield()
			logf("server yielded")
		}
	})
	e.Run()
	return log
}

// A Then callback runs exactly where the parked waiter it replaces would
// have resumed: twin engines, one with a waiting process and one with
// callbacks, log the same events at the same times in the same order.
func TestSignalThenTakesWaitersSlot(t *testing.T) {
	waited, then := thenTwinLog(false), thenTwinLog(true)
	if fmt.Sprint(waited) != fmt.Sprint(then) {
		t.Fatalf("Then order differs from Wait order:\nwait: %q\nthen: %q", waited, then)
	}
	if len(waited) != 20 {
		t.Fatalf("%d log entries, want 20: %q", len(waited), waited)
	}
}

// Then takes the only waiter slot: a second waiter of either kind panics.
func TestSignalThenIsTheOnlyWaiter(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	e := NewEngine()
	s := NewSignal(e)
	s.Then(func() {})
	expectPanic("second Then", func() { s.Then(func() {}) })
	e2 := NewEngine()
	s2 := NewSignal(e2)
	e2.Spawn("waiter", func(env *Env) { s2.Wait(env) })
	e2.RunUntil(0)
	expectPanic("Then after Wait", func() { s2.Then(func() {}) })
}

// A reset signal carries the next completion: a client that resets its
// signal in its Then callback and registers again sees every value once, in
// order, from one Signal.
func TestSignalResetReuse(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	var got []any
	var onFire func()
	onFire = func() {
		got = append(got, s.Value())
		s.Reset()
		if s.Fired() || s.Value() != nil {
			t.Errorf("after Reset: fired %v, value %v", s.Fired(), s.Value())
		}
		if len(got) < 3 {
			s.Then(onFire)
			e.After(10, func() { s.Fire(len(got)) })
		}
	}
	s.Then(onFire)
	e.After(10, func() { s.Fire(0) })
	e.Run()
	if fmt.Sprint(got) != "[0 1 2]" {
		t.Fatalf("values %v, want [0 1 2]", got)
	}
	e2 := NewEngine()
	s2 := NewSignal(e2)
	e2.Spawn("waiter", func(env *Env) {
		for i := 0; i < 2; i++ {
			if v := s2.Wait(env); v != i {
				t.Errorf("wait %d returned %v", i, v)
			}
			s2.Reset()
		}
	})
	e2.Spawn("firer", func(env *Env) {
		for i := 0; i < 2; i++ {
			env.Sleep(10)
			s2.Fire(i)
		}
	})
	e2.Run()
}

// Reset panics on a signal that has not fired, with or without a waiter.
func TestSignalResetBeforeFirePanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	e := NewEngine()
	expectPanic("Reset before Fire", func() { NewSignal(e).Reset() })
	s := NewSignal(e)
	s.Then(func() {})
	expectPanic("Reset with a Then waiter", s.Reset)
	e2 := NewEngine()
	s2 := NewSignal(e2)
	e2.Spawn("waiter", func(env *Env) { s2.Wait(env) })
	e2.RunUntil(0)
	expectPanic("Reset with a parked waiter", s2.Reset)
}

func TestSignalDoubleFirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e := NewEngine()
	s := NewSignal(e)
	s.Fire(nil)
	s.Fire(nil)
}

func TestBroadcast(t *testing.T) {
	e := NewEngine()
	b := NewBroadcast(e)
	woken := 0
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(env *Env) {
			b.Wait(env)
			woken++
		})
	}
	e.Spawn("n", func(env *Env) {
		env.Sleep(10)
		if len(b.waiters) != 3 {
			t.Errorf("waiting = %d, want 3", len(b.waiters))
		}
		b.Notify()
	})
	e.Run()
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
}

func TestQueueFIFO(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	var got []int
	e.Spawn("consumer", func(env *Env) {
		for {
			v, ok := q.Pop(env)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	e.Spawn("producer", func(env *Env) {
		for i := 0; i < 5; i++ {
			env.Sleep(10)
			q.Push(i)
		}
		q.Close()
	})
	e.Run()
	if len(got) != 5 {
		t.Fatalf("got %v, want 5 items", got)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("queue order = %v", got)
		}
	}
}

func TestQueueTryPop(t *testing.T) {
	e := NewEngine()
	q := NewQueue[string](e)
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on empty queue succeeded")
	}
	q.Push("a")
	if v, ok := q.TryPop(); !ok || v != "a" {
		t.Fatalf("TryPop = %q,%v", v, ok)
	}
}

func TestTimelineFIFO(t *testing.T) {
	var tl Timeline
	s1, e1 := tl.Reserve(100, 50)
	if s1 != 100 || e1 != 150 {
		t.Fatalf("first reserve = [%d,%d], want [100,150]", s1, e1)
	}
	// Second request at an earlier now still queues behind the first.
	s2, e2 := tl.Reserve(120, 30)
	if s2 != 150 || e2 != 180 {
		t.Fatalf("second reserve = [%d,%d], want [150,180]", s2, e2)
	}
	// After the horizon, service starts immediately.
	s3, _ := tl.Reserve(500, 10)
	if s3 != 500 {
		t.Fatalf("third reserve start = %d, want 500", s3)
	}
	if tl.BusyTotal() != 90 {
		t.Fatalf("busy total = %v, want 90", tl.BusyTotal())
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Spawn("ticker", func(env *Env) {
		for i := 0; i < 100; i++ {
			env.Sleep(10)
			count++
		}
	})
	e.RunUntil(55)
	if count != 5 {
		t.Fatalf("count at t=55 is %d, want 5", count)
	}
	if e.Now() != 55 {
		t.Fatalf("now = %v, want 55", e.Now())
	}
	e.Run()
	if count != 100 {
		t.Fatalf("final count = %d, want 100", count)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Spawn("ticker", func(env *Env) {
		for {
			env.Sleep(10)
			count++
			if count == 7 {
				e.Stop()
			}
		}
	})
	e.Run()
	if count != 7 {
		t.Fatalf("count = %d, want 7", count)
	}
	if !e.stopped {
		t.Fatal("engine not marked stopped")
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	e := NewEngine()
	s := NewSignal(e)
	e.Spawn("stuck", func(env *Env) { s.Wait(env) }) // nobody fires
	e.Run()
}

func TestProcDoneSignal(t *testing.T) {
	e := NewEngine()
	var observed Time
	p := e.Spawn("child", func(env *Env) { env.Sleep(30) })
	e.Spawn("parent", func(env *Env) {
		p.Done.Wait(env)
		observed = env.Now()
	})
	e.Run()
	if observed != 30 {
		t.Fatalf("parent observed child end at %v, want 30", observed)
	}
	if !p.done {
		t.Fatal("child not marked terminated")
	}
}

func TestDurationForBytes(t *testing.T) {
	if d := DurationForBytes(1<<30, 1<<30); d != Second {
		t.Fatalf("1GiB at 1GiB/s = %v, want 1s", d)
	}
	if d := DurationForBytes(0, 100); d != 0 {
		t.Fatalf("zero bytes = %v, want 0", d)
	}
	if d := DurationForBytes(100, 0); d != 0 {
		t.Fatalf("zero bandwidth = %v, want 0", d)
	}
	// Property: monotone in n, and never truncates to zero for positive n.
	prop := func(n uint32, bw uint32) bool {
		nb, bwb := int64(n%1<<28)+1, int64(bw%1<<28)+1
		d1 := DurationForBytes(nb, bwb)
		d2 := DurationForBytes(nb*2, bwb)
		return d1 > 0 && d2 >= d1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{2500 * Nanosecond, "2.500µs"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestDaemonsExcludedFromDeadlock(t *testing.T) {
	e := NewEngine()
	b := NewBroadcast(e)
	e.SpawnDaemon("service", func(env *Env) {
		for {
			b.Wait(env) // parks forever once the workload drains
		}
	})
	done := false
	e.Spawn("worker", func(env *Env) {
		env.Sleep(10)
		b.Notify()
		env.Sleep(10)
		done = true
	})
	// Must drain without a deadlock panic despite the parked daemon.
	e.Run()
	if !done {
		t.Fatal("worker did not finish")
	}
}

func TestDaemonTerminationCounted(t *testing.T) {
	e := NewEngine()
	p := e.SpawnDaemon("short-lived", func(env *Env) { env.Sleep(5) })
	e.Run()
	if !p.done {
		t.Fatal("daemon did not terminate")
	}
	// A later non-daemon deadlock must still panic.
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	s := NewSignal(e)
	e.Spawn("stuck", func(env *Env) { s.Wait(env) })
	e.Run()
}

func TestShutdownUnwindsParkedProcs(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	cleaned := 0
	for i := 0; i < 5; i++ {
		e.SpawnDaemon("parked", func(env *Env) {
			defer func() { cleaned++ }()
			s.Wait(env) // never fired
		})
	}
	e.Spawn("worker", func(env *Env) { env.Sleep(10) })
	e.Run()
	e.Shutdown()
	if cleaned != 5 {
		t.Fatalf("cleaned = %d, want 5 (parked goroutines must unwind)", cleaned)
	}
	if len(e.procs) != 0 {
		t.Fatalf("procs still registered: %d", len(e.procs))
	}
}

func TestShutdownUnwindsInSpawnOrder(t *testing.T) {
	const n = 40
	e := NewEngine()
	s := NewSignal(e)
	var order []int
	for i := 0; i < n; i++ {
		e.Spawn("parked", func(env *Env) {
			defer func() { order = append(order, i) }()
			s.Wait(env) // never fired
		})
	}
	e.RunUntil(10)
	e.Shutdown()
	if len(order) != n {
		t.Fatalf("unwound %d processes, want %d", len(order), n)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("unwind order %v, want spawn order", order)
		}
	}
}

func TestProcessPanicReachesRunCaller(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	var unwound []string
	for _, name := range []string{"a", "b"} {
		e.Spawn(name, func(env *Env) {
			defer func() { unwound = append(unwound, name) }()
			s.Wait(env) // never fired
		})
	}
	e.Spawn("boom", func(env *Env) {
		env.Sleep(5)
		panic("boom")
	})
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run()
	}()
	if got != "boom" {
		t.Fatalf("Run panicked with %v, want the process's panic value boom", got)
	}
	if e.Now() != 5 {
		t.Fatalf("panic surfaced at t=%v, want 5", e.Now())
	}
	e.Shutdown()
	if len(unwound) != 2 || unwound[0] != "a" || unwound[1] != "b" {
		t.Fatalf("Shutdown after the panic unwound %v, want [a b]", unwound)
	}
}
