package nand

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/slimio/slimio/internal/bufpool"
	"github.com/slimio/slimio/internal/sim"
)

func testArray(t *testing.T) *Array {
	t.Helper()
	geo := Geometry{Channels: 2, DiesPerChannel: 2, BlocksPerDie: 4, PagesPerBlock: 8, PageSize: 512}
	a, err := New(geo, DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestGeometryMath(t *testing.T) {
	g := Geometry{Channels: 8, DiesPerChannel: 8, BlocksPerDie: 16, PagesPerBlock: 256, PageSize: 4096}
	if g.Dies() != 64 {
		t.Errorf("dies = %d", g.Dies())
	}
	if g.Blocks() != 1024 {
		t.Errorf("blocks = %d", g.Blocks())
	}
	if g.Pages() != 1024*256 {
		t.Errorf("pages = %d", g.Pages())
	}
	if g.Capacity() != 1024*256*4096 {
		t.Errorf("capacity = %d", g.Capacity())
	}
}

func TestDefaultGeometry(t *testing.T) {
	g := DefaultGeometry(2 << 30)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Channels != 8 || g.DiesPerChannel != 8 || g.PageSize != 4096 {
		t.Fatalf("unexpected FEMU defaults: %+v", g)
	}
	cap := g.Capacity()
	if cap < (2<<30)*9/10 || cap > 2<<30 {
		t.Fatalf("capacity = %d, want ~2GiB", cap)
	}
	if DefaultGeometry(0).Capacity() != cap {
		t.Fatal("zero total must default to 2GiB")
	}
}

func TestValidate(t *testing.T) {
	bad := Geometry{Channels: 0, DiesPerChannel: 1, BlocksPerDie: 1, PagesPerBlock: 1, PageSize: 1}
	if bad.Validate() == nil {
		t.Fatal("expected validation error")
	}
	if _, err := New(bad, DefaultLatencies()); err == nil {
		t.Fatal("New must reject bad geometry")
	}
}

func TestPPAConversionRoundTrip(t *testing.T) {
	a := testArray(t)
	g := a.Geometry()
	for die := 0; die < g.Dies(); die++ {
		for block := 0; block < g.BlocksPerDie; block++ {
			for page := 0; page < g.PagesPerBlock; page++ {
				ppa := a.PPAOf(die, block, page)
				if a.DieOf(ppa) != die {
					t.Fatalf("DieOf(%d) = %d, want %d", ppa, a.DieOf(ppa), die)
				}
				if a.BlockOf(ppa) != die*g.BlocksPerDie+block {
					t.Fatalf("BlockOf(%d) = %d", ppa, a.BlockOf(ppa))
				}
				if a.PageOf(ppa) != page {
					t.Fatalf("PageOf(%d) = %d, want %d", ppa, a.PageOf(ppa), page)
				}
			}
		}
	}
}

func TestProgramReadRoundTrip(t *testing.T) {
	a := testArray(t)
	payload := []byte("hello nand")
	ppa := a.PPAOf(1, 2, 0)
	if _, err := a.Program(0, ppa, bufpool.Borrowed(payload)); err != nil {
		t.Fatal(err)
	}
	got, _, err := a.Read(0, ppa)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("read %q, want %q", got, payload)
	}
	// Mutating the original buffer must not affect stored data.
	payload[0] = 'X'
	got2, _, _ := a.Read(0, ppa)
	if got2[0] == 'X' {
		t.Fatal("stored page aliases caller buffer")
	}
}

func TestSequentialProgramRule(t *testing.T) {
	a := testArray(t)
	// Page 1 before page 0 must fail.
	if _, err := a.Program(0, a.PPAOf(0, 0, 1), bufpool.Borrowed([]byte("x"))); err == nil {
		t.Fatal("out-of-order program succeeded")
	}
	if _, err := a.Program(0, a.PPAOf(0, 0, 0), bufpool.Borrowed([]byte("x"))); err != nil {
		t.Fatal(err)
	}
	// Reprogramming page 0 must fail.
	if _, err := a.Program(0, a.PPAOf(0, 0, 0), bufpool.Borrowed([]byte("y"))); err == nil {
		t.Fatal("reprogram without erase succeeded")
	}
	if _, err := a.Program(0, a.PPAOf(0, 0, 1), bufpool.Borrowed([]byte("x"))); err != nil {
		t.Fatal(err)
	}
}

func TestEraseResetsBlock(t *testing.T) {
	a := testArray(t)
	g := a.Geometry()
	for p := 0; p < g.PagesPerBlock; p++ {
		if _, err := a.Program(0, a.PPAOf(0, 0, p), bufpool.Borrowed([]byte{byte(p)})); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.NextProgramPage(0, 0); got != g.PagesPerBlock {
		t.Fatalf("full block next page = %d", got)
	}
	if _, err := a.Erase(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if got := a.NextProgramPage(0, 0); got != 0 {
		t.Fatalf("erased block next page = %d", got)
	}
	if got := a.blocks[0].erases; got != 1 {
		t.Fatalf("erase count = %d", got)
	}
	// Old data gone.
	if _, _, err := a.Read(0, a.PPAOf(0, 0, 3)); err == nil {
		t.Fatal("read of erased page succeeded")
	}
	// Block programmable again from page 0.
	if _, err := a.Program(0, a.PPAOf(0, 0, 0), bufpool.Borrowed([]byte("new"))); err != nil {
		t.Fatal(err)
	}
}

func TestReadUnwrittenFails(t *testing.T) {
	a := testArray(t)
	if _, _, err := a.Read(0, a.PPAOf(0, 1, 0)); err == nil {
		t.Fatal("expected error reading unwritten page")
	}
}

func TestBoundsChecks(t *testing.T) {
	a := testArray(t)
	if _, err := a.Program(0, InvalidPPA, bufpool.Ref{}); err == nil {
		t.Fatal("program at InvalidPPA succeeded")
	}
	if _, _, err := a.Read(0, PPA(a.Geometry().Pages())); err == nil {
		t.Fatal("read past end succeeded")
	}
	if _, err := a.Erase(0, a.Geometry().Dies(), 0); err == nil {
		t.Fatal("erase of bad die succeeded")
	}
	big := make([]byte, a.Geometry().PageSize+1)
	if _, err := a.Program(0, a.PPAOf(0, 0, 0), bufpool.Borrowed(big)); err == nil {
		t.Fatal("oversized program succeeded")
	}
}

func TestTimingSerializesPerDie(t *testing.T) {
	a := testArray(t)
	lat := a.Latencies()
	// Two programs to the same die: second completes one program later.
	done1, err := a.Program(0, a.PPAOf(0, 0, 0), bufpool.Borrowed([]byte("a")))
	if err != nil {
		t.Fatal(err)
	}
	done2, err := a.Program(0, a.PPAOf(0, 0, 1), bufpool.Borrowed([]byte("b")))
	if err != nil {
		t.Fatal(err)
	}
	if done2.Sub(done1) < lat.PageWrite {
		t.Fatalf("same-die programs overlapped: %v then %v", done1, done2)
	}
	// Programs to dies on different channels overlap fully.
	otherDie := a.Geometry().DiesPerChannel // first die of channel 1
	done3, err := a.Program(0, a.PPAOf(otherDie, 0, 0), bufpool.Borrowed([]byte("c")))
	if err != nil {
		t.Fatal(err)
	}
	if done3 != done1 {
		t.Fatalf("cross-channel program did not run in parallel: %v vs %v", done3, done1)
	}
}

func TestChannelContention(t *testing.T) {
	a := testArray(t)
	// Dies 0 and 1 share channel 0: their transfers serialize even though
	// the NAND cells operate in parallel.
	d0, _ := a.Program(0, a.PPAOf(0, 0, 0), bufpool.Borrowed([]byte("a")))
	d1, _ := a.Program(0, a.PPAOf(1, 0, 0), bufpool.Borrowed([]byte("b")))
	if d1 <= d0 {
		t.Skipf("channel xfer too small to observe: %v vs %v", d0, d1)
	}
	if got, want := d1.Sub(d0), a.Latencies().ChannelXfer; got != want {
		t.Fatalf("channel stagger = %v, want %v", got, want)
	}
}

func TestEraseLatency(t *testing.T) {
	a := testArray(t)
	done, err := a.Erase(1000, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := done.Sub(1000); got != a.Latencies().BlockErase {
		t.Fatalf("erase latency = %v, want %v", got, a.Latencies().BlockErase)
	}
}

func TestStatsCounting(t *testing.T) {
	a := testArray(t)
	_, _ = a.Program(0, a.PPAOf(0, 0, 0), bufpool.Borrowed([]byte("a")))
	_, _, _ = a.Read(0, a.PPAOf(0, 0, 0))
	_, _ = a.Erase(0, 0, 0)
	s := a.Stats()
	if s.Programs != 1 || s.Reads != 1 || s.Erases != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// Property: any interleaving of valid programs and erases keeps data
// readable and correct for the pages most recently programmed.
func TestDataIntegrityProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		geo := Geometry{Channels: 1, DiesPerChannel: 2, BlocksPerDie: 3, PagesPerBlock: 4, PageSize: 64}
		a, err := New(geo, DefaultLatencies())
		if err != nil {
			return false
		}
		type key struct{ die, block, page int }
		expect := make(map[key][]byte)
		now := sim.Time(0)
		for op := 0; op < 200; op++ {
			die := rng.Intn(geo.Dies())
			block := rng.Intn(geo.BlocksPerDie)
			if rng.Intn(10) == 0 {
				if _, err := a.Erase(now, die, block); err != nil {
					return false
				}
				for p := 0; p < geo.PagesPerBlock; p++ {
					delete(expect, key{die, block, p})
				}
				continue
			}
			page := a.NextProgramPage(die, block)
			if page >= geo.PagesPerBlock {
				continue // full; skip
			}
			data := []byte(fmt.Sprintf("%d/%d/%d/%d", seed, die, block, op))
			if _, err := a.Program(now, a.PPAOf(die, block, page), bufpool.Borrowed(data)); err != nil {
				return false
			}
			expect[key{die, block, page}] = data
			now += sim.Time(rng.Intn(1000))
		}
		for k, want := range expect {
			got, _, err := a.Read(now, a.PPAOf(k.die, k.block, k.page))
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDieBusyTotal(t *testing.T) {
	a := testArray(t)
	_, _ = a.Program(0, a.PPAOf(0, 0, 0), bufpool.Borrowed([]byte("x")))
	if a.DieBusyTotal(0) != a.Latencies().PageWrite {
		t.Fatalf("die busy = %v", a.DieBusyTotal(0))
	}
	if a.DieBusyTotal(1) != 0 {
		t.Fatalf("idle die busy = %v", a.DieBusyTotal(1))
	}
}

func TestWearStats(t *testing.T) {
	a := testArray(t)
	if w := a.Wear(); w.TotalErases != 0 || w.MaxErases != 0 {
		t.Fatalf("fresh array wear = %+v", w)
	}
	_, _ = a.Erase(0, 0, 0)
	_, _ = a.Erase(0, 0, 0)
	_, _ = a.Erase(0, 1, 2)
	w := a.Wear()
	if w.TotalErases != 3 || w.MaxErases != 2 || w.MinErases != 0 {
		t.Fatalf("wear = %+v", w)
	}
	if w.MeanErases <= 0 {
		t.Fatalf("mean = %v", w.MeanErases)
	}
}
