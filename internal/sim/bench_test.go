package sim

import (
	"runtime"
	"testing"
)

// BenchmarkEventThroughput measures raw callback-event processing.
func BenchmarkEventThroughput(b *testing.B) { runBench(b, eventThroughput) }

// runBench times the n ops of the engine setup builds for b, setup excluded.
func runBench(b *testing.B, setup func(n int) *Engine) {
	e := setup(b.N)
	b.ResetTimer()
	e.Run()
}

func eventThroughput(ops int) *Engine {
	e := NewEngine()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < ops {
			e.After(10, tick)
		}
	}
	e.After(10, tick)
	return e
}

// BenchmarkProcessSwitch measures the self-wake path: one process sleeping,
// so every park finds its own wake-up next and returns with no switch.
func BenchmarkProcessSwitch(b *testing.B) { runBench(b, processSwitch) }

func processSwitch(n int) *Engine {
	e := NewEngine()
	e.Spawn("p", func(env *Env) {
		for i := 0; i < n; i++ {
			env.Sleep(1)
		}
	})
	return e
}

// BenchmarkProcessHandoff measures a handoff between processes: two
// processes alternate Sleep(2), so every wake-up resumes the other one.
func BenchmarkProcessHandoff(b *testing.B) { runBench(b, processHandoff) }

func processHandoff(n int) *Engine {
	e := NewEngine()
	worker := func(env *Env) {
		for i := 0; i < n/2; i++ {
			env.Sleep(2)
		}
	}
	e.Spawn("a", worker)
	e.Spawn("b", worker)
	return e
}

// BenchmarkSignalThen measures a callback waiter's round trip: Then, a Fire
// from a later event, and the callback's dispatch — what a closed-loop client
// pays per reply instead of a process handoff. The one signal is reset in
// place each op, so the figure is the mechanism's, not the allocator's.
func BenchmarkSignalThen(b *testing.B) { runBench(b, signalThen) }

func signalThen(ops int) *Engine {
	e := NewEngine()
	s := NewSignal(e)
	n := 0
	var fire, onFire func()
	fire = func() { s.Fire(nil) }
	onFire = func() {
		n++
		if n < ops {
			*s = Signal{eng: e}
			s.Then(onFire)
			e.After(1, fire)
		}
	}
	s.Then(onFire)
	e.After(1, fire)
	return e
}

// BenchmarkResourceHandoff measures contended mutex transfer between two
// processes.
func BenchmarkResourceHandoff(b *testing.B) { runBench(b, resourceHandoff) }

func resourceHandoff(n int) *Engine {
	e := NewEngine()
	r := NewResource(e, 1)
	worker := func(env *Env) {
		for i := 0; i < n/2; i++ {
			r.Acquire(env)
			env.Sleep(1)
			r.Release()
		}
	}
	e.Spawn("a", worker)
	e.Spawn("b", worker)
	return e
}

// TestHotPathAllocBudgets pins the allocation budget of the DES hot paths:
// the event loop, a process handoff, a Then round trip and Work's billing
// must be allocation-free, and a
// contended resource handoff may allocate at most once per op (waiter-ring
// growth amortizes to zero; the budget leaves headroom for runtime noise).
// Regressions here reintroduce GC pressure that dominates paper-scale runs.
// Each path runs a fixed hotPathOps ops, counted as testing.Benchmark counts
// them: the allocations of the run, setup excluded, divided down to whole
// allocations per op.
func TestHotPathAllocBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed assertion is not a -short test")
	}
	const hotPathOps = 1 << 17
	cases := []struct {
		name   string
		setup  func(n int) *Engine
		budget uint64 // max allocs/op
	}{
		{"EventThroughput", eventThroughput, 0},
		{"ProcessSwitch", processSwitch, 1},
		{"ProcessHandoff", processHandoff, 0},
		{"SignalThen", signalThen, 0},
		{"Work", work, 0},
		{"ResourceHandoff", resourceHandoff, 1},
	}
	var before, after runtime.MemStats
	for _, tc := range cases {
		e := tc.setup(hotPathOps)
		runtime.ReadMemStats(&before)
		e.Run()
		runtime.ReadMemStats(&after)
		if got := (after.Mallocs - before.Mallocs) / hotPathOps; got > tc.budget {
			t.Errorf("%s: %d allocs/op, budget %d (%d B/op)", tc.name, got, tc.budget, (after.TotalAlloc-before.TotalAlloc)/hotPathOps)
		}
	}
}

// BenchmarkWork measures Env.Work's billing: one process cycles through
// three tags, as the engine's main loop and uring's submitter do, so every op
// scans the tag table and self-wakes.
func BenchmarkWork(b *testing.B) { runBench(b, work) }

func work(n int) *Engine {
	e := NewEngine()
	tags := [...]string{"cmd", "ring", "dispatch"}
	e.Spawn("p", func(env *Env) {
		for i := 0; i < n; i++ {
			env.Work(tags[i%len(tags)], 1)
		}
	})
	return e
}

// BenchmarkTimelineReserve measures the analytic facility booking used by
// the NAND model.
func BenchmarkTimelineReserve(b *testing.B) {
	var tl Timeline
	for i := 0; i < b.N; i++ {
		tl.Reserve(Time(i), 5)
	}
}
