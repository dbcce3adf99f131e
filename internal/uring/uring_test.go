package uring

import (
	"bytes"
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
		var sigs []*sim.Signal
		for i := 0; i < 8; i++ {
			sigs = append(sigs, ring.WriteAsync(env, int64(i), refs(pages(1, 'p')), 1))
		}
		for _, s := range sigs {
			if cqe := s.Wait(env).(*CQE); cqe.Err != nil {
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
	if got := f.Stats().HostWritesByPID[3]; got != 2 {
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
		cqe := ring.SubmitAndWait(env, &SQE{Op: Op(99)})
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
			var sigs []*sim.Signal
			for i := 0; i < 50; i++ {
				sigs = append(sigs, ring.WriteAsync(env, int64(i), refs(pages(1, 'c')), 1))
			}
			for _, s := range sigs {
				s.Wait(env)
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
