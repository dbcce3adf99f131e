package uring

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"github.com/slimio/slimio/internal/bufpool"
	"github.com/slimio/slimio/internal/fdp"
	"github.com/slimio/slimio/internal/nand"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/ssd"
)

func newDev(t *testing.T, useFDP bool) *ssd.Device {
	t.Helper()
	geo := nand.Geometry{Channels: 2, DiesPerChannel: 2, BlocksPerDie: 16, PagesPerBlock: 16, PageSize: 512}
	arr, err := nand.New(geo, nand.DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	var f ssd.FTL
	if useFDP {
		f, err = fdp.New(arr, fdp.Config{})
	} else {
		f, err = fdp.NewConventional(arr, fdp.Config{})
	}
	if err != nil {
		t.Fatal(err)
	}
	return ssd.New(f, ssd.Config{})
}

func pages(n int, tag byte) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		p := make([]byte, 512)
		for j := range p {
			p[j] = tag + byte(i)
		}
		out[i] = p
	}
	return out
}

func TestWriteReadRoundTripBothModes(t *testing.T) {
	for _, sqpoll := range []bool{false, true} {
		dev := newDev(t, true)
		eng := sim.NewEngine()
		ring := NewRing(eng, dev, "t", Config{SQPoll: sqpoll})
		in := pages(3, 'a')
		eng.Spawn("app", func(env *sim.Env) {
			if err := ring.Write(env, 10, refs(in), 1); err != nil {
				t.Errorf("sqpoll=%v: %v", sqpoll, err)
				return
			}
			out, err := ring.Read(env, 10, 3)
			if err != nil {
				t.Errorf("sqpoll=%v: %v", sqpoll, err)
				return
			}
			for i := range in {
				if !bytes.Equal(in[i], out[i]) {
					t.Errorf("sqpoll=%v: page %d mismatch", sqpoll, i)
				}
			}
		})
		eng.Run()
	}
}

func TestSQPollEliminatesSyscalls(t *testing.T) {
	dev := newDev(t, true)
	eng := sim.NewEngine()
	ring := NewRing(eng, dev, "t", Config{SQPoll: true})
	eng.Spawn("app", func(env *sim.Env) {
		for i := 0; i < 10; i++ {
			if err := ring.Write(env, int64(i), refs(pages(1, 'x')), 1); err != nil {
				t.Error(err)
				return
			}
		}
	})
	eng.Run()
	s := ring.Stats()
	if s.Syscalls != 0 {
		t.Fatalf("SQPOLL mode issued %d syscalls", s.Syscalls)
	}
	if s.Submitted != 10 || s.Completed != 10 {
		t.Fatalf("submitted=%d completed=%d, want 10/10", s.Submitted, s.Completed)
	}
	if s.SQPollWakes == 0 {
		t.Fatal("poller never picked up work")
	}
}

func TestNonSQPollCountsSyscalls(t *testing.T) {
	dev := newDev(t, true)
	eng := sim.NewEngine()
	ring := NewRing(eng, dev, "t", Config{SQPoll: false})
	eng.Spawn("app", func(env *sim.Env) {
		for i := 0; i < 7; i++ {
			if err := ring.Write(env, int64(i), refs(pages(1, 'x')), 1); err != nil {
				t.Error(err)
				return
			}
		}
	})
	eng.Run()
	if s := ring.Stats(); s.Syscalls != 7 {
		t.Fatalf("syscalls = %d, want 7", s.Syscalls)
	}
}

func TestAsyncSubmissionOverlapsDeviceTime(t *testing.T) {
	// Submitting N single-page writes async and then waiting must be much
	// faster than N sequential blocking writes, thanks to die parallelism.
	dev := newDev(t, true)
	eng := sim.NewEngine()
	ring := NewRing(eng, dev, "t", Config{SQPoll: true})
	var asyncTime sim.Duration
	eng.Spawn("app", func(env *sim.Env) {
		t0 := env.Now()
		var sqes []*SQE
		for i := 0; i < 8; i++ {
			sqes = append(sqes, ring.WriteAsync(env, int64(i), refs(pages(1, 'p')), 1))
		}
		for _, sqe := range sqes {
			if cqe := ring.Reap(env, sqe); cqe.Err != nil {
				t.Error(cqe.Err)
			}
		}
		asyncTime = env.Now().Sub(t0)
	})
	eng.Run()

	dev2 := newDev(t, true)
	eng2 := sim.NewEngine()
	ring2 := NewRing(eng2, dev2, "t", Config{SQPoll: true})
	var seqTime sim.Duration
	eng2.Spawn("app", func(env *sim.Env) {
		t0 := env.Now()
		for i := 0; i < 8; i++ {
			if err := ring2.Write(env, int64(i), refs(pages(1, 'p')), 1); err != nil {
				t.Error(err)
			}
		}
		seqTime = env.Now().Sub(t0)
	})
	eng2.Run()
	if asyncTime*2 >= seqTime {
		t.Fatalf("async batch %v not much faster than sequential %v", asyncTime, seqTime)
	}
}

func TestPIDReachesFDPDevice(t *testing.T) {
	dev := newDev(t, true)
	eng := sim.NewEngine()
	ring := NewRing(eng, dev, "t", Config{SQPoll: true})
	eng.Spawn("app", func(env *sim.Env) {
		if err := ring.Write(env, 0, refs(pages(2, 'w')), 3); err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	f := dev.FTL().(*fdp.FTL)
	if got := f.Stats().PIDs[3].HostWrites; got != 2 {
		t.Fatalf("PID 3 writes = %d, want 2", got)
	}
}

func TestDeallocateCommand(t *testing.T) {
	dev := newDev(t, true)
	eng := sim.NewEngine()
	ring := NewRing(eng, dev, "t", Config{SQPoll: true})
	eng.Spawn("app", func(env *sim.Env) {
		if err := ring.Write(env, 0, refs(pages(4, 'd')), 1); err != nil {
			t.Error(err)
			return
		}
		if err := ring.Deallocate(env, 0, 4); err != nil {
			t.Error(err)
			return
		}
		if _, err := ring.Read(env, 0, 1); err == nil {
			t.Error("read after TRIM succeeded")
		}
	})
	eng.Run()
}

func TestErrorsSurfaceInCQE(t *testing.T) {
	dev := newDev(t, false)
	eng := sim.NewEngine()
	ring := NewRing(eng, dev, "t", Config{SQPoll: true})
	eng.Spawn("app", func(env *sim.Env) {
		if _, err := ring.Read(env, 0, 1); err == nil {
			t.Error("read of unmapped LPA returned no error")
		}
		if err := ring.Write(env, dev.Capacity()+5, refs(pages(1, 'x')), 0); err == nil {
			t.Error("out-of-range write returned no error")
		}
	})
	eng.Run()
}

func TestUnknownOpcode(t *testing.T) {
	dev := newDev(t, false)
	eng := sim.NewEngine()
	ring := NewRing(eng, dev, "t", Config{SQPoll: false})
	eng.Spawn("app", func(env *sim.Env) {
		cqe := ring.submitAndWait(env, ring.slot(op(99), 0, 0, 0))
		if cqe.Err == nil {
			t.Error("unknown opcode accepted")
		}
	})
	eng.Run()
}

func TestTwoRingsAreIndependent(t *testing.T) {
	// The SlimIO pattern: WAL-Path and Snapshot-Path rings on one device.
	// A burst on one ring must not add software-queue wait to the other
	// (device-level die contention is the only shared resource).
	dev := newDev(t, true)
	eng := sim.NewEngine()
	walRing := NewRing(eng, dev, "wal", Config{SQPoll: false})
	snapRing := NewRing(eng, dev, "snap", Config{SQPoll: true})
	var walErr, snapErr error
	eng.Spawn("wal", func(env *sim.Env) {
		for i := 0; i < 20; i++ {
			if walErr = walRing.Write(env, int64(i), refs(pages(1, 'w')), 1); walErr != nil {
				return
			}
		}
	})
	eng.Spawn("snap", func(env *sim.Env) {
		for i := 0; i < 20; i++ {
			if snapErr = snapRing.Write(env, int64(100+i), refs(pages(4, 's')), 2); snapErr != nil {
				return
			}
		}
	})
	eng.Run()
	if walErr != nil || snapErr != nil {
		t.Fatalf("wal=%v snap=%v", walErr, snapErr)
	}
	if walRing.Stats().Completed != 20 || snapRing.Stats().Completed != 20 {
		t.Fatal("completions missing")
	}
}

func TestSubmissionLatencyCheaperThanSyscallMode(t *testing.T) {
	// Measure pure submission cost (not completion): SQPOLL submission
	// must cost the app far less CPU time than syscall-mode submission.
	cost := func(sqpoll bool) sim.Duration {
		dev := newDev(t, true)
		eng := sim.NewEngine()
		ring := NewRing(eng, dev, "t", Config{SQPoll: sqpoll})
		var p *sim.Proc
		p = eng.Spawn("app", func(env *sim.Env) {
			var sqes []*SQE
			for i := 0; i < 50; i++ {
				sqes = append(sqes, ring.WriteAsync(env, int64(i), refs(pages(1, 'c')), 1))
			}
			for _, sqe := range sqes {
				ring.Reap(env, sqe)
			}
		})
		eng.Run()
		return p.BusyTime("syscall") + p.BusyTime("ring") + p.BusyTime("dispatch")
	}
	if poll, sys := cost(true), cost(false); poll*2 >= sys {
		t.Fatalf("SQPOLL submission cost %v not well below syscall mode %v", poll, sys)
	}
}

// refs wraps raw test pages as borrowed (unpooled) buffer references.
func refs(pp [][]byte) []bufpool.Ref {
	out := make([]bufpool.Ref, len(pp))
	for i, p := range pp {
		out[i] = bufpool.Borrowed(p)
	}
	return out
}

func TestReadAsyncReapReturnsData(t *testing.T) {
	dev := newDev(t, true)
	eng := sim.NewEngine()
	ring := NewRing(eng, dev, "t", Config{SQPoll: true})
	in := pages(4, 'r')
	eng.Spawn("app", func(env *sim.Env) {
		if err := ring.Write(env, 20, refs(in), 1); err != nil {
			t.Error(err)
			return
		}
		a, b := ring.ReadAsync(env, 20, 2), ring.ReadAsync(env, 22, 2)
		for i, sqe := range []*SQE{a, b} {
			cqe := ring.Reap(env, sqe)
			if cqe.Err != nil || cqe.Status != nand.StatusOK || len(cqe.Data) != 2 {
				t.Errorf("read %d: err=%v status=%v pages=%d", i, cqe.Err, cqe.Status, len(cqe.Data))
				continue
			}
			for j, pg := range cqe.Data {
				if !bytes.Equal(pg, in[2*i+j]) {
					t.Errorf("read %d page %d mismatch", i, j)
				}
			}
		}
		if cqe := ring.Reap(env, ring.ReadAsync(env, 900, 1)); cqe.Err == nil || cqe.Status == nand.StatusOK {
			t.Errorf("read of an unwritten page: err=%v status=%v", cqe.Err, cqe.Status)
		}
	})
	eng.Run()
}

// A reaped slot belongs to the ring again: reaping it a second time panics,
// as a double Release does, and so does reaping it through another ring.
func TestReapTwicePanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	dev := newDev(t, true)
	eng := sim.NewEngine()
	ring := NewRing(eng, dev, "t", Config{})
	other := NewRing(eng, dev, "u", Config{})
	eng.Spawn("app", func(env *sim.Env) {
		sqe := ring.WriteAsync(env, 0, refs(pages(1, 'z')), 1)
		expectPanic("reap through another ring", func() { other.Reap(env, sqe) })
		if cqe := ring.Reap(env, sqe); cqe.Err != nil {
			t.Error(cqe.Err)
		}
		expectPanic("second reap", func() { ring.Reap(env, sqe) })
	})
	eng.Run()
}

// TestHotPathAllocBudgets pins a ring command's allocations from submit to
// reap, blocking and asynchronous, with and without the SQPOLL poller: a
// command reuses a ring-owned slot (its CQE, signal and post callback, and a
// copy of the page list), and its completion is a pair of engine callbacks,
// so none allocates. Counted as the sim package counts its hot paths: the
// allocations of the run, setup included, divided down to whole allocations
// per op.
func TestHotPathAllocBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts over a long run are not a -short test")
	}
	const ops = 1 << 14
	cases := []struct {
		name   string
		sqpoll bool
		async  bool
	}{
		{"Write/syscall", false, false},
		{"Write/sqpoll", true, false},
		{"WriteAsync+Reap/syscall", false, true},
		{"WriteAsync+Reap/sqpoll", true, true},
	}
	var before, after runtime.MemStats
	for _, tc := range cases {
		dev := newDev(t, true)
		eng := sim.NewEngine()
		ring := NewRing(eng, dev, "t", Config{SQPoll: tc.sqpoll})
		dev.FTL().Array().SetClock(eng) // overwritten pages return to the pool
		pool := dev.FTL().Array().Pool()
		eng.Spawn("app", func(env *sim.Env) {
			page := make([]bufpool.Ref, 1)
			for i := 0; i < ops; i++ {
				seg := pool.Get() // the ring takes this reference
				page[0] = bufpool.Ref{Seg: seg, B: seg.Bytes()}
				var err error
				if tc.async {
					err = ring.Reap(env, ring.WriteAsync(env, int64(i%64), page, 1)).Err
				} else {
					err = ring.Write(env, int64(i%64), page, 1)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		})
		runtime.ReadMemStats(&before)
		eng.Run()
		runtime.ReadMemStats(&after)
		t.Logf("%s: %.4f allocs/op", tc.name, float64(after.Mallocs-before.Mallocs)/ops)
		if got := (after.Mallocs - before.Mallocs) / ops; got > 0 {
			t.Errorf("%s: %d allocs/op, budget 0 (%d B/op)", tc.name, got, (after.TotalAlloc-before.TotalAlloc)/ops)
		}
	}
}

// refRing is the reference model of the ring's completion side: the
// CQ-handler process the ring ran before its completions became engine
// callbacks. complete and cqHandler are that ring's code, kept verbatim.
type refRing struct {
	eng   *sim.Engine
	cfg   Config
	cq    *sim.Queue[*refSQE]
	stats Stats
}

type refSQE struct {
	done   *sim.Signal
	result *CQE
}

func newRefRing(eng *sim.Engine, name string, cfg Config) *refRing {
	cfg.fillDefaults()
	r := &refRing{eng: eng, cfg: cfg, cq: sim.NewQueue[*refSQE](eng)}
	eng.SpawnDaemon("cq-handler:"+name, r.cqHandler)
	return r
}

// complete posts the CQE at time t; the CQ handler daemon fires the waiter.
func (r *refRing) complete(t sim.Time, sqe *refSQE, cqe *CQE) {
	sqe.result = cqe
	r.eng.At(t, func() { r.cq.Push(sqe) })
}

// cqHandler drains the completion queue and fires each command's signal.
func (r *refRing) cqHandler(env *sim.Env) {
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

// completionCmd is one command of a seeded completion schedule: its
// submitter sleeps gap, posts the completion lat later and then works for
// work; a waiter process (or, with then, a Then callback) takes the
// completion.
type completionCmd struct {
	gap, lat, work sim.Duration
	then           bool
}

// completionSchedule draws nRings command lists on a grid coarse enough
// that completions meet at one instant and arrive while the handler is busy.
func completionSchedule(seed int64, nRings, n int) [][]completionCmd {
	rng := rand.New(rand.NewSource(seed))
	grid := func(max int) sim.Duration { return sim.Duration(rng.Intn(max+1)) * 50 * sim.Nanosecond }
	out := make([][]completionCmd, nRings)
	for k := range out {
		for i := 0; i < n; i++ {
			out[k] = append(out[k], completionCmd{gap: grid(4), lat: grid(6), work: grid(3), then: rng.Intn(2) == 0})
		}
	}
	return out
}

// completionLog runs sched on one engine, its completions handled by the
// ring's callbacks or, with reference, by the handler process of refRing,
// and logs every completion, every post-side probe of the CQ depth and
// completion count, and every submitter wake-up, with its time, in event
// order.
func completionLog(sched [][]completionCmd, reference bool) []string {
	eng := sim.NewEngine()
	var log []string
	logf := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%d ", eng.Now())+fmt.Sprintf(format, args...))
	}
	for k, cmds := range sched {
		name := fmt.Sprintf("r%d", k)
		var ref *refRing
		var ring *Ring
		depth := func() (int, int64) { return ring.CQDepth(), ring.Stats().Completed }
		if reference {
			ref = newRefRing(eng, name, Config{})
			depth = func() (int, int64) { return ref.cq.Len(), ref.stats.Completed }
		} else {
			ring = NewRing(eng, nil, name, Config{})
		}
		probe := func(tag string) func() {
			return func() {
				d, c := depth()
				logf("%s %s cq=%d completed=%d", name, tag, d, c)
			}
		}
		eng.Spawn("submit:"+name, func(env *sim.Env) {
			for i, c := range cmds {
				env.Sleep(c.gap)
				at := env.Now().Add(c.lat)
				var done *sim.Signal
				var wait func(env *sim.Env)
				if reference {
					sqe := &refSQE{done: sim.NewSignal(eng)}
					ref.complete(at, sqe, &CQE{})
					done, wait = sqe.done, func(env *sim.Env) { sqe.done.Wait(env) }
				} else {
					sqe := ring.slot(opDeallocate, int64(i), 1, 0)
					ring.complete(at, sqe, CQE{})
					done, wait = sqe.done, func(env *sim.Env) { ring.Reap(env, sqe) }
				}
				// Both probes sort after the post at its instant and before
				// whatever the post schedules there.
				eng.At(at, probe(fmt.Sprintf("post %d", i)))
				eng.At(at.Add(150*sim.Nanosecond), probe(fmt.Sprintf("post %d+overhead", i)))
				if c.then {
					done.Then(func() { logf("%s done %d (then)", name, i) })
				} else {
					eng.Spawn(fmt.Sprintf("wait:%s:%d", name, i), func(env *sim.Env) {
						wait(env)
						logf("%s done %d (wait)", name, i)
					})
				}
				env.Work("ring", c.work)
				logf("%s submitter %d", name, i)
			}
		})
	}
	eng.Run()
	return log
}

// TestCompletionOrderMatchesHandlerProcess holds the ring's completion
// callbacks to the CQ-handler process they replace: twin engines run the
// same seeded schedules over two rings, one engine with the handler process
// kept in refRing, and must log the same completions, CQ depths and
// submitter wake-ups at the same times in the same order. The schedules put
// several completions at one instant, post completions while the handler is
// busy with an earlier one, and take completions with both Wait and Then.
func TestCompletionOrderMatchesHandlerProcess(t *testing.T) {
	var sameInstant, whileBusy int
	for seed := int64(1); seed <= 20; seed++ {
		sched := completionSchedule(seed, 2, 40)
		want, got := completionLog(sched, true), completionLog(sched, false)
		if len(want) != len(got) {
			t.Fatalf("seed %d: %d events, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("seed %d: event %d is %q, reference %q", seed, i, got[i], want[i])
			}
		}
		for _, cmds := range sched {
			var t0, prev sim.Time
			for i, c := range cmds {
				t0 = t0.Add(c.gap)
				at := t0.Add(c.lat)
				if i > 0 && at == prev {
					sameInstant++
				}
				if i > 0 && at > prev && at < prev.Add(150*sim.Nanosecond) {
					whileBusy++
				}
				prev = at
				t0 = t0.Add(c.work)
			}
		}
	}
	if sameInstant == 0 || whileBusy == 0 {
		t.Fatalf("schedules never covered a case: %d same-instant, %d while-busy posts", sameInstant, whileBusy)
	}
}
