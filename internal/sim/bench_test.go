package sim

import "testing"

// BenchmarkEventThroughput measures raw callback-event processing.
func BenchmarkEventThroughput(b *testing.B) {
	e := NewEngine()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			e.After(10, tick)
		}
	}
	e.After(10, tick)
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcessSwitch measures the self-wake path: one process sleeping,
// so every park finds its own wake-up next and returns with no switch.
func BenchmarkProcessSwitch(b *testing.B) {
	e := NewEngine()
	e.Spawn("p", func(env *Env) {
		for i := 0; i < b.N; i++ {
			env.Sleep(1)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcessHandoff measures a handoff between processes: two
// processes alternate Sleep(2), so every wake-up resumes the other one.
func BenchmarkProcessHandoff(b *testing.B) {
	e := NewEngine()
	worker := func(env *Env) {
		for i := 0; i < b.N/2; i++ {
			env.Sleep(2)
		}
	}
	e.Spawn("a", worker)
	e.Spawn("b", worker)
	b.ResetTimer()
	e.Run()
}

// BenchmarkSignalThen measures a callback waiter's round trip: Then, a Fire
// from a later event, and the callback's dispatch — what a closed-loop client
// pays per reply instead of a process handoff. The one signal is reset in
// place each op, so the figure is the mechanism's, not the allocator's.
func BenchmarkSignalThen(b *testing.B) {
	e := NewEngine()
	s := NewSignal(e)
	n := 0
	var fire, onFire func()
	fire = func() { s.Fire(nil) }
	onFire = func() {
		n++
		if n < b.N {
			*s = Signal{eng: e}
			s.Then(onFire)
			e.After(1, fire)
		}
	}
	s.Then(onFire)
	e.After(1, fire)
	b.ResetTimer()
	e.Run()
}

// BenchmarkResourceHandoff measures contended mutex transfer between two
// processes.
func BenchmarkResourceHandoff(b *testing.B) {
	e := NewEngine()
	r := NewResource(e, 1)
	worker := func(env *Env) {
		for i := 0; i < b.N/2; i++ {
			r.Acquire(env)
			env.Sleep(1)
			r.Release()
		}
	}
	e.Spawn("a", worker)
	e.Spawn("b", worker)
	b.ResetTimer()
	e.Run()
}

// TestHotPathAllocBudgets pins the allocation budget of the DES hot paths:
// the event loop, a process handoff, a Then round trip and Work's billing
// must be allocation-free, and a
// contended resource handoff may allocate at most once per op (waiter-ring
// growth amortizes to zero; the budget leaves headroom for runtime noise).
// Regressions here reintroduce GC pressure that dominates paper-scale runs.
func TestHotPathAllocBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed assertion is not a -short test")
	}
	cases := []struct {
		name   string
		bench  func(*testing.B)
		budget int64 // max allocs/op
	}{
		{"EventThroughput", BenchmarkEventThroughput, 0},
		{"ProcessSwitch", BenchmarkProcessSwitch, 1},
		{"ProcessHandoff", BenchmarkProcessHandoff, 0},
		{"SignalThen", BenchmarkSignalThen, 0},
		{"Work", BenchmarkWork, 0},
		{"ResourceHandoff", BenchmarkResourceHandoff, 1},
	}
	for _, tc := range cases {
		res := testing.Benchmark(tc.bench)
		if got := res.AllocsPerOp(); got > tc.budget {
			t.Errorf("%s: %d allocs/op, budget %d (%s)", tc.name, got, tc.budget, res.MemString())
		}
	}
}

// BenchmarkWork measures Env.Work's billing: one process cycles through
// three tags, as the engine's main loop and uring's submitter do, so every op
// scans the tag table and self-wakes.
func BenchmarkWork(b *testing.B) {
	e := NewEngine()
	tags := [...]string{"cmd", "ring", "dispatch"}
	e.Spawn("p", func(env *Env) {
		for i := 0; i < b.N; i++ {
			env.Work(tags[i%len(tags)], 1)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkTimelineReserve measures the analytic facility booking used by
// the NAND model.
func BenchmarkTimelineReserve(b *testing.B) {
	var tl Timeline
	for i := 0; i < b.N; i++ {
		tl.Reserve(Time(i), 5)
	}
}
