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
// the event loop and a process handoff must be allocation-free, and a
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
		{"ResourceHandoff", BenchmarkResourceHandoff, 1},
	}
	for _, tc := range cases {
		res := testing.Benchmark(tc.bench)
		if got := res.AllocsPerOp(); got > tc.budget {
			t.Errorf("%s: %d allocs/op, budget %d (%s)", tc.name, got, tc.budget, res.MemString())
		}
	}
}

// BenchmarkTimelineReserve measures the analytic facility booking used by
// the NAND model.
func BenchmarkTimelineReserve(b *testing.B) {
	var tl Timeline
	for i := 0; i < b.N; i++ {
		tl.Reserve(Time(i), 5)
	}
}
