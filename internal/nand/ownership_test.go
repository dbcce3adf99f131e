package nand

import (
	"bytes"
	"testing"

	"github.com/slimio/slimio/internal/bufpool"
	"github.com/slimio/slimio/internal/sim"
)

// Fault-path ownership: a torn program (power cut mid-page) stores the
// hook's partial image, NOT an alias of the caller's pooled segment — the
// array must not retain a reference it would never release (the torn slot
// holds plain bytes, so the erase path has nothing to release there).
func TestTornProgramOwnership(t *testing.T) {
	a := testArray(t)
	pool := a.Pool()
	s := pool.Get()
	copy(s.Bytes(), page("payload", a.geo.PageSize))
	a.SetFaultHook(&scriptHook{programDec: ProgramDecision{
		Outcome: ProgramTorn, Torn: page("torn", a.geo.PageSize/2),
	}})
	ppa := a.PPAOf(0, 0, 0)
	if _, err := a.Program(0, ppa, bufpool.Ref{Seg: s, B: s.Bytes()}); !IsTornWrite(err) {
		t.Fatalf("err = %v, want interrupted-write status", err)
	}
	if ref := a.StoredRef(ppa); ref.Seg != nil {
		t.Fatal("torn slot aliases the caller's pooled segment")
	}
	if got := s.Refs(); got != 1 {
		t.Fatalf("caller's refcount = %d after torn program, want 1 (array must not retain)", got)
	}
	s.Release()
	a.SetFaultHook(nil)
	a.ReleaseStored()
	if n := pool.InFlight(); n != 0 {
		t.Fatalf("%d segments in flight after teardown", n)
	}
}

// A permanently failed program consumes the page slot but stores nothing:
// ownership of the payload stays with the caller, and teardown must not
// find a stale reference parked on the dead slot.
func TestProgramFailOwnership(t *testing.T) {
	a := testArray(t)
	pool := a.Pool()
	s := pool.Get()
	copy(s.Bytes(), page("payload", a.geo.PageSize))
	a.SetFaultHook(&scriptHook{programDec: ProgramDecision{Outcome: ProgramFail}})
	ppa := a.PPAOf(0, 0, 0)
	if _, err := a.Program(0, ppa, bufpool.Ref{Seg: s, B: s.Bytes()}); !IsProgramFail(err) {
		t.Fatalf("err = %v, want write-fault status", err)
	}
	if ref := a.StoredRef(ppa); ref.Seg != nil || ref.B != nil {
		t.Fatal("failed program stored something")
	}
	if got := s.Refs(); got != 1 {
		t.Fatalf("caller's refcount = %d after failed program, want 1", got)
	}
	s.Release()
	a.SetFaultHook(nil)
	a.ReleaseStored()
	if n := pool.InFlight(); n != 0 {
		t.Fatalf("%d segments in flight after teardown", n)
	}
}

// Erase releases each stored page's reference exactly once (into the read
// quarantine), and a subsequent ReleaseStored must treat the erased slots
// as empty — a second release of the same segment panics in bufpool, so
// this test passing IS the no-double-release proof.
func TestEraseReleasesStoredExactlyOnce(t *testing.T) {
	a := testArray(t)
	pool := a.Pool()
	ppb := a.geo.PagesPerBlock
	segs := make([]*bufpool.Segment, ppb)
	now := sim.Time(0)
	for p := 0; p < ppb; p++ {
		s := pool.Get()
		copy(s.Bytes(), page("z", a.geo.PageSize))
		segs[p] = s
		done, err := a.Program(now, a.PPAOf(0, 0, p), bufpool.Ref{Seg: s, B: s.Bytes()})
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	if got := segs[0].Refs(); got != 2 {
		t.Fatalf("refs = %d after zero-copy program, want 2 (caller + array)", got)
	}
	if _, err := a.Erase(now, 0, 0); err != nil {
		t.Fatal(err)
	}
	for p, s := range segs {
		if got := s.Refs(); got != 1 {
			t.Fatalf("page %d: refs = %d after erase, want 1 (array's share released)", p, got)
		}
	}
	a.ReleaseStored() // must skip the erased block's already-released slots
	for _, s := range segs {
		s.Release()
	}
	if n := pool.InFlight(); n != 0 {
		t.Fatalf("%d segments in flight after teardown", n)
	}
}

type manualClock struct{ now sim.Time }

func (c *manualClock) Now() sim.Time { return c.now }

// Discard releases the stored page's reference into the read quarantine, not
// straight to the free list: an alias returned by a Read that is still in
// flight when the page is overwritten (and so discarded) must keep its bytes
// until the read completes, and the pool must not hand the segment out again
// before the clock has passed that completion plus slack.
func TestDiscardQuarantinesReadAlias(t *testing.T) {
	a := testArray(t)
	clk := &manualClock{}
	a.SetClock(clk)
	pool := a.Pool()
	want := page("live", a.geo.PageSize)
	ppa := a.PPAOf(0, 0, 0)
	pdone, err := a.Program(0, ppa, bufpool.Borrowed(want))
	if err != nil {
		t.Fatal(err)
	}
	seg := a.StoredRef(ppa).Seg
	clk.now = pdone
	alias, rdone, err := a.Read(clk.now, ppa)
	if err != nil {
		t.Fatal(err)
	}

	a.Discard(ppa)
	if ref := a.StoredRef(ppa); ref.Seg != nil || ref.B != nil {
		t.Fatal("discarded page still holds bytes")
	}
	if n := pool.InFlight(); n != 0 {
		t.Fatalf("InFlight = %d after discarding the only stored page, want 0", n)
	}
	if _, _, err := a.Read(clk.now, ppa); err == nil {
		t.Fatal("read of a discarded page succeeded")
	}
	if got := a.NextProgramPage(0, 0); got != 1 {
		t.Fatalf("discard moved the block's program pointer to %d, want 1 (page stays consumed)", got)
	}

	// Up to the read's completion the segment must stay parked: every Get
	// carves fresh memory and the alias keeps its bytes.
	clk.now = rdone
	for i := 0; i < 4; i++ {
		s := pool.Get()
		if s == seg {
			t.Fatalf("discarded segment handed out at t=%v, before the aliasing read completed", clk.now)
		}
		clear(s.Bytes())
		defer s.Release()
	}
	if !bytes.Equal(alias, want) {
		t.Fatal("read alias changed before the read's completion time")
	}

	// Past the horizon plus slack the segment is recycled.
	clk.now = rdone.Add(2 * quarantineSlack)
	s := pool.Get()
	defer s.Release()
	if s != seg {
		t.Fatal("discarded segment was not recycled once the quarantine expired")
	}
}

// Discard on a page that holds no pooled bytes — never programmed, already
// discarded, or torn — must leave the pool alone: a second release of a
// segment panics in bufpool, so passing IS the proof.
func TestDiscardOfEmptyPageIsNoOp(t *testing.T) {
	a := testArray(t)
	pool := a.Pool()
	a.Discard(a.PPAOf(1, 0, 0)) // unwritten

	stored := a.PPAOf(0, 0, 0)
	if _, err := a.Program(0, stored, bufpool.Borrowed(page("x", a.geo.PageSize))); err != nil {
		t.Fatal(err)
	}
	a.Discard(stored)
	a.Discard(stored) // already discarded

	a.SetFaultHook(&scriptHook{programDec: ProgramDecision{
		Outcome: ProgramTorn, Torn: page("torn", a.geo.PageSize/2),
	}})
	torn := a.PPAOf(0, 0, 1)
	if _, err := a.Program(0, torn, bufpool.Borrowed(page("y", a.geo.PageSize))); !IsTornWrite(err) {
		t.Fatalf("err = %v, want interrupted-write status", err)
	}
	a.SetFaultHook(nil)
	a.Discard(torn) // plain Go memory: dropped to the garbage collector
	if ref := a.StoredRef(torn); ref.B != nil {
		t.Fatal("discarded torn page still holds its image")
	}

	if n := pool.InFlight(); n != 0 {
		t.Fatalf("InFlight = %d, want 0", n)
	}
	if _, err := a.Erase(0, 0, 0); err != nil { // must skip the discarded slots
		t.Fatal(err)
	}
	a.ReleaseStored()
	if n := pool.InFlight(); n != 0 {
		t.Fatalf("InFlight = %d after erase + teardown, want 0", n)
	}
}

// Relocate moves a stored page's reference: the destination aliases the same
// segment, the source holds nothing, and the refcount is unchanged. A failed
// destination program leaves the source's page where it was, and a torn
// source image is copied into a pool segment of its own. Teardown then
// releases each segment once — a double release panics in bufpool, a missed
// one shows as InFlight.
func TestRelocateMovesReference(t *testing.T) {
	a := testArray(t)
	pool := a.Pool()
	want := page("live", a.geo.PageSize)
	src, dst := a.PPAOf(0, 0, 0), a.PPAOf(1, 0, 0)
	if _, err := a.Program(0, src, bufpool.Borrowed(want)); err != nil {
		t.Fatal(err)
	}
	seg := a.StoredRef(src).Seg

	a.SetFaultHook(&scriptHook{programDec: ProgramDecision{Outcome: ProgramFail}})
	if _, err := a.Relocate(0, src, dst); !IsProgramFail(err) {
		t.Fatalf("err = %v, want write-fault status", err)
	}
	a.SetFaultHook(nil)
	if ref := a.StoredRef(src); ref.Seg != seg || !bytes.Equal(ref.B, want) {
		t.Fatal("a failed relocation moved the source's page")
	}

	dst = a.PPAOf(1, 0, 1)
	if _, err := a.Relocate(0, src, dst); err != nil {
		t.Fatal(err)
	}
	if ref := a.StoredRef(src); ref.Seg != nil || ref.B != nil {
		t.Fatal("relocated source still holds its page")
	}
	if ref := a.StoredRef(dst); ref.Seg != seg || !bytes.Equal(ref.B, want) {
		t.Fatal("destination does not hold the source's segment")
	}
	if got := seg.Refs(); got != 1 {
		t.Fatalf("refcount = %d after relocation, want 1", got)
	}
	a.Discard(src) // what the FTL's unmap does next: nothing left to release

	a.SetFaultHook(&scriptHook{programDec: ProgramDecision{
		Outcome: ProgramTorn, Torn: page("torn", a.geo.PageSize/2),
	}})
	torn := a.PPAOf(2, 0, 0)
	if _, err := a.Program(0, torn, bufpool.Borrowed(want)); !IsTornWrite(err) {
		t.Fatalf("err = %v, want interrupted-write status", err)
	}
	a.SetFaultHook(nil)
	tornDst := a.PPAOf(2, 0, 1)
	if _, err := a.Relocate(0, torn, tornDst); err != nil {
		t.Fatal(err)
	}
	if ref := a.StoredRef(tornDst); ref.Seg == nil || !bytes.Equal(ref.B, page("torn", a.geo.PageSize/2)) {
		t.Fatal("torn image was not copied into a pool segment")
	}
	if ref := a.StoredRef(torn); ref.B == nil {
		t.Fatal("torn source lost its image before the FTL unmapped it")
	}

	a.ReleaseStored()
	if n := pool.InFlight(); n != 0 {
		t.Fatalf("%d segments in flight after teardown", n)
	}
}
