package fault

import (
	"bytes"
	"testing"

	"github.com/slimio/slimio/internal/bufpool"
	"github.com/slimio/slimio/internal/metrics"
	"github.com/slimio/slimio/internal/nand"
	"github.com/slimio/slimio/internal/sim"
)

func TestZeroPlanIsInactiveNoop(t *testing.T) {
	p := NewPlan(Config{Seed: 7})
	if p.Active() {
		t.Fatal("zero-rate plan reports Active")
	}
	before := p.rng.state
	data := bytes.Repeat([]byte("x"), 64)
	if err := p.ReadFault(0, 0); err != nil {
		t.Fatalf("read fault from zero plan: %v", err)
	}
	if d := p.ProgramFault(0, 100, 0, data); d.Outcome != nand.ProgramOK {
		t.Fatalf("program decision = %v, want ProgramOK", d.Outcome)
	}
	if err := p.EraseFault(0, 0, 0); err != nil {
		t.Fatalf("erase fault from zero plan: %v", err)
	}
	if p.rng.state != before {
		t.Fatal("zero-rate plan consumed randomness")
	}
	if p.Stats() != (Stats{}) {
		t.Fatalf("zero-rate plan counted faults: %+v", p.Stats())
	}
}

// Two plans with the same seed and rates must make identical decisions over
// an identical operation sequence — the whole point of seed-driven faults.
func TestSameSeedSameSchedule(t *testing.T) {
	mk := func() *Plan {
		return NewPlan(Config{Seed: 42, ReadErrRate: 0.3, ProgramErrRate: 0.3, EraseErrRate: 0.3})
	}
	a, b := mk(), mk()
	data := bytes.Repeat([]byte("d"), 32)
	for i := 0; i < 500; i++ {
		ppa := nand.PPA(i)
		switch i % 3 {
		case 0:
			ea, eb := a.ReadFault(sim.Time(i), ppa), b.ReadFault(sim.Time(i), ppa)
			if (ea == nil) != (eb == nil) {
				t.Fatalf("op %d: read decisions diverge (%v vs %v)", i, ea, eb)
			}
		case 1:
			da := a.ProgramFault(sim.Time(i), sim.Time(i+1), ppa, data)
			db := b.ProgramFault(sim.Time(i), sim.Time(i+1), ppa, data)
			if da.Outcome != db.Outcome || !bytes.Equal(da.Torn, db.Torn) {
				t.Fatalf("op %d: program decisions diverge", i)
			}
		case 2:
			ea, eb := a.EraseFault(sim.Time(i), i, i), b.EraseFault(sim.Time(i), i, i)
			if (ea == nil) != (eb == nil) {
				t.Fatalf("op %d: erase decisions diverge (%v vs %v)", i, ea, eb)
			}
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverge: %+v vs %+v", a.Stats(), b.Stats())
	}
	if s := a.Stats(); s.ReadErrors == 0 || s.ProgramErrors == 0 || s.EraseErrors == 0 {
		t.Fatalf("30%% rates over 500 ops injected nothing: %+v", s)
	}
}

func TestFaultKindsAndStatuses(t *testing.T) {
	p := NewPlan(Config{Seed: 1, ReadErrRate: 1, ProgramErrRate: 1, EraseErrRate: 1})
	if err := p.ReadFault(0, 5); !nand.IsTransient(err) || nand.StatusOf(err) != nand.StatusUnrecoveredRead {
		t.Fatalf("read fault = %v, want transient unrecovered-read", err)
	}
	if d := p.ProgramFault(0, 1, 5, []byte("abc")); d.Outcome != nand.ProgramFail || d.Torn != nil {
		t.Fatalf("program fault = %+v, want ProgramFail with no image", d)
	}
	if err := p.EraseFault(0, 0, 0); !nand.IsEraseFault(err) {
		t.Fatalf("erase fault = %v, want erase-fault status", err)
	}
}

// A power cut tears exactly the programs whose completion falls after the
// cut, regardless of the program error rate (the cut check runs first).
func TestPowerCutClassification(t *testing.T) {
	p := NewPlan(Config{Seed: 3})
	if p.Active() {
		t.Fatal("plan active before arming")
	}
	p.SchedulePowerCut(1000)
	if !p.Active() {
		t.Fatal("armed power cut must activate the plan")
	}
	data := bytes.Repeat([]byte("p"), 48)
	if d := p.ProgramFault(900, 1000, 7, data); d.Outcome != nand.ProgramOK {
		t.Fatalf("program completing at the cut: %v, want OK", d.Outcome)
	}
	d := p.ProgramFault(990, 1001, 7, data)
	if d.Outcome != nand.ProgramTorn {
		t.Fatalf("program completing after the cut: %v, want torn", d.Outcome)
	}
	if len(d.Torn) != len(data) {
		t.Fatalf("torn image %d bytes, payload %d", len(d.Torn), len(data))
	}
	if p.Stats().TornPrograms != 1 {
		t.Fatalf("stats = %+v", p.Stats())
	}
}

// The torn image keeps a prefix of the payload and fills the rest with
// non-zero garbage, so WAL decoding can tell it from a clean unwritten tail.
func TestTornImageShape(t *testing.T) {
	p := NewPlan(Config{Seed: 11})
	data := bytes.Repeat([]byte{0x42}, 256)
	sawPartial := false
	for i := 0; i < 50; i++ {
		img := p.tornImage(data)
		if len(img) != len(data) {
			t.Fatalf("torn image %d bytes, payload %d", len(img), len(data))
		}
		k := 0
		for k < len(img) && img[k] == data[k] {
			k++
		}
		for j := k; j < len(img); j++ {
			if img[j] == 0 {
				t.Fatalf("iteration %d: zero byte at %d in the garbage region (looks like a clean tail)", i, j)
			}
		}
		if k < len(img) {
			sawPartial = true
		}
	}
	if !sawPartial {
		t.Fatal("50 torn images all kept the full payload")
	}
}

// An installed zero-rate plan must leave the array bit-identical (data and
// timing) to a run with no hook at all — fault-free results do not shift.
func TestZeroRatePlanBitIdentical(t *testing.T) {
	geo := nand.Geometry{Channels: 2, DiesPerChannel: 2, BlocksPerDie: 4, PagesPerBlock: 8, PageSize: 256}
	run := func(install bool) ([]byte, sim.Time) {
		arr, err := nand.New(geo, nand.DefaultLatencies())
		if err != nil {
			t.Fatal(err)
		}
		if install {
			arr.SetFaultHook(NewPlan(Config{Seed: 99}))
		}
		var last sim.Time
		for i := 0; i < 16; i++ {
			ppa := arr.PPAOf(i%4, 0, i/4)
			done, err := arr.Program(sim.Time(i*1000), ppa, bufpool.Borrowed(bytes.Repeat([]byte{byte(i + 1)}, geo.PageSize)))
			if err != nil {
				t.Fatal(err)
			}
			if done > last {
				last = done
			}
		}
		var out []byte
		for i := 0; i < 16; i++ {
			data, done, err := arr.Read(last+sim.Time(i*1000), arr.PPAOf(i%4, 0, i/4))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, data...)
			if done > last {
				last = done
			}
		}
		return out, last
	}
	d1, t1 := run(false)
	d2, t2 := run(true)
	if !bytes.Equal(d1, d2) || t1 != t2 {
		t.Fatalf("zero-rate plan shifted results: bytes equal=%v, time %v vs %v", bytes.Equal(d1, d2), t1, t2)
	}
}

// recordingSink captures Recorder callbacks for the seam test.
type recordingSink struct {
	reads, programs, erases int
}

func (r *recordingSink) RecordRead(now sim.Time, ppa nand.PPA)            { r.reads++ }
func (r *recordingSink) RecordProgram(start, done sim.Time, ppa nand.PPA) { r.programs++ }
func (r *recordingSink) RecordErase(now sim.Time, die, block int)         { r.erases++ }

// TestRecorderSeam: attaching a Recorder activates an otherwise-zero plan
// (so the NAND array consults it), every boundary reaches the recorder, and
// no fault is injected and no randomness consumed while recording.
func TestRecorderSeam(t *testing.T) {
	sink := &recordingSink{}
	p := NewPlan(Config{Seed: 7, Recorder: sink})
	if !p.Active() {
		t.Fatal("plan with a recorder must report Active")
	}
	before := p.rng.state
	data := bytes.Repeat([]byte("x"), 64)
	if err := p.ReadFault(0, 0); err != nil {
		t.Fatalf("read fault while recording: %v", err)
	}
	if d := p.ProgramFault(0, 100, 0, data); d.Outcome != nand.ProgramOK {
		t.Fatalf("program decision = %v, want ProgramOK", d.Outcome)
	}
	if err := p.EraseFault(0, 0, 0); err != nil {
		t.Fatalf("erase fault while recording: %v", err)
	}
	if sink.reads != 1 || sink.programs != 1 || sink.erases != 1 {
		t.Fatalf("recorder saw %d/%d/%d boundaries, want 1/1/1", sink.reads, sink.programs, sink.erases)
	}
	if p.rng.state != before {
		t.Fatal("recording consumed randomness")
	}
	if p.Stats() != (Stats{}) {
		t.Fatalf("recording counted faults: %+v", p.Stats())
	}
	p.cfg.Recorder = nil
	if p.Active() {
		t.Fatal("clearing the recorder must deactivate a zero-rate plan")
	}
}

// TestStatsAddAndAddTo: replay aggregation and the counter export skip
// zeroes so fault-free dumps stay empty.
func TestStatsAddAndAddTo(t *testing.T) {
	var s Stats
	s.Add(Stats{ReadErrors: 2, TornPrograms: 3})
	s.Add(Stats{TornPrograms: 1, EraseErrors: 4})
	want := Stats{ReadErrors: 2, EraseErrors: 4, TornPrograms: 4}
	if s != want {
		t.Fatalf("Add: got %+v, want %+v", s, want)
	}
	ctr := &metrics.Counter{}
	s.AddTo(ctr)
	if got := ctr.Get(CounterReadErr); got != 2 {
		t.Errorf("%s = %d, want 2", CounterReadErr, got)
	}
	if got := ctr.Get(CounterEraseErr); got != 4 {
		t.Errorf("%s = %d, want 4", CounterEraseErr, got)
	}
	if got := ctr.Get(CounterTornProgram); got != 4 {
		t.Errorf("%s = %d, want 4", CounterTornProgram, got)
	}
	kvs := ctr.Sorted()
	for _, kv := range kvs {
		if kv.Key == CounterProgramErr {
			t.Errorf("zero count %s exported; fault-free dumps must stay empty", CounterProgramErr)
		}
	}
	if (Stats{}).AddTo(ctr); len(ctr.Sorted()) != len(kvs) {
		t.Error("zero Stats.AddTo added counters")
	}
}
