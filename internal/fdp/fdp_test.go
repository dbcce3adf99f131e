package fdp

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/slimio/slimio/internal/bufpool"
	"github.com/slimio/slimio/internal/nand"
	"github.com/slimio/slimio/internal/sim"
)

// newTestFTL builds a 2-die device with 2-block RUs (one block per die).
func newTestFTL(t *testing.T, blocksPerDie int) *FTL {
	t.Helper()
	geo := nand.Geometry{Channels: 1, DiesPerChannel: 2, BlocksPerDie: blocksPerDie, PagesPerBlock: 8, PageSize: 128}
	arr, err := nand.New(geo, nand.DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(arr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func page(s string, size int) []byte {
	b := make([]byte, 0, size)
	for len(b) < size {
		b = append(b, s...)
	}
	return b[:size]
}

func TestRUAssembly(t *testing.T) {
	f := newTestFTL(t, 8)
	if f.RUCount() != 8 {
		t.Fatalf("RU count = %d, want 8", f.RUCount())
	}
	// Every RU must stripe across both dies.
	for _, ru := range f.rus {
		dies := map[int]bool{}
		for _, b := range ru.blocks {
			dies[b.die] = true
		}
		if len(dies) != 2 {
			t.Fatalf("RU %d does not stripe across dies: %+v", ru.id, ru.blocks)
		}
	}
}

func TestIndivisibleRUSizeRejected(t *testing.T) {
	geo := nand.Geometry{Channels: 1, DiesPerChannel: 2, BlocksPerDie: 3, PagesPerBlock: 4, PageSize: 64}
	arr, err := nand.New(geo, nand.DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(arr, Config{BlocksPerRU: 4}); err == nil {
		t.Fatal("6 blocks with RU=4 must be rejected")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	f := newTestFTL(t, 8)
	want := page("fdp", 128)
	if _, err := f.Write(0, 5, bufpool.Borrowed(want), 1); err != nil {
		t.Fatal(err)
	}
	got, _, err := f.Read(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("round trip mismatch")
	}
}

func TestPIDLimitEnforced(t *testing.T) {
	f := newTestFTL(t, 8)
	if _, err := f.Write(0, 0, bufpool.Borrowed(page("x", 128)), 8); err == nil {
		t.Fatal("PID 8 accepted on an 8-PID device")
	}
	if _, err := f.Write(0, 0, bufpool.Borrowed(page("x", 128)), 7); err != nil {
		t.Fatalf("PID 7 rejected: %v", err)
	}
}

func TestPIDSeparation(t *testing.T) {
	f := newTestFTL(t, 8)
	// Write one page with PID 1 and one with PID 2: they must land in
	// different reclaim units.
	if _, err := f.Write(0, 0, bufpool.Borrowed(page("a", 128)), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(0, 1, bufpool.Borrowed(page("b", 128)), 2); err != nil {
		t.Fatal(err)
	}
	ru0 := f.ruOf[f.arr.BlockOf(f.l2p[0])]
	ru1 := f.ruOf[f.arr.BlockOf(f.l2p[1])]
	if ru0 == ru1 {
		t.Fatal("different PIDs share a reclaim unit")
	}
	if f.rus[ru0].pid != 1 || f.rus[ru1].pid != 2 {
		t.Fatal("RU PID ownership wrong")
	}
}

func TestSamePIDSharesRU(t *testing.T) {
	f := newTestFTL(t, 8)
	for lpa := int64(0); lpa < 4; lpa++ {
		if _, err := f.Write(0, lpa, bufpool.Borrowed(page("x", 128)), 3); err != nil {
			t.Fatal(err)
		}
	}
	ru := f.ruOf[f.arr.BlockOf(f.l2p[0])]
	for lpa := int64(1); lpa < 4; lpa++ {
		if f.ruOf[f.arr.BlockOf(f.l2p[lpa])] != ru {
			t.Fatal("same-PID writes scattered across RUs")
		}
	}
}

// The headline FDP property: separated lifetimes + whole-region TRIM =>
// reclaim never copies, WAF stays exactly 1.00.
func TestLifetimeSeparationWAFOne(t *testing.T) {
	f := newTestFTL(t, 8)
	now := sim.Time(0)
	region := f.Capacity() / 4
	if region == 0 {
		t.Fatal("device too small for test")
	}
	// Stream 1: a circular log (short-lived). Stream 2: long-lived data
	// written once. Many log rounds force reclaim.
	for lpa := int64(0); lpa < region; lpa++ {
		done, err := f.Write(now, region*2+lpa, bufpool.Borrowed(page("cold", 128)), 2)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	for round := 0; round < 20; round++ {
		for lpa := int64(0); lpa < region; lpa++ {
			done, err := f.Write(now, lpa, bufpool.Borrowed(page("log", 128)), 1)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			now = done
		}
		if err := f.Deallocate(0, region); err != nil {
			t.Fatal(err)
		}
	}
	s := f.Stats()
	if s.RUsReclaimed == 0 {
		t.Fatal("reclaim never ran; enlarge the workload")
	}
	if s.GCCopiedPages != 0 {
		t.Fatalf("reclaim copied %d pages; lifetime separation should avoid all copies", s.GCCopiedPages)
	}
	if s.WAF() != 1.0 {
		t.Fatalf("WAF = %.4f, want exactly 1.00", s.WAF())
	}
	if s.RUsReclaimedEmpty != s.RUsReclaimed {
		t.Fatalf("reclaims = %d but empty reclaims = %d", s.RUsReclaimed, s.RUsReclaimedEmpty)
	}
	// Cold data must have survived reclaim untouched.
	for lpa := region * 2; lpa < region*3; lpa++ {
		got, _, err := f.Read(now, lpa)
		if err != nil || !bytes.Equal(got, page("cold", 128)) {
			t.Fatalf("cold LPA %d corrupted: %v", lpa, err)
		}
	}
}

// Mixing lifetimes within one PID degrades FDP to conventional behaviour:
// reclaim must copy and WAF rises above 1.
func TestMixedLifetimesInOnePIDAmplify(t *testing.T) {
	f := newTestFTL(t, 8)
	rng := rand.New(rand.NewSource(9))
	now := sim.Time(0)
	hot := f.Capacity() / 2
	for i := 0; i < int(f.Capacity())*5; i++ {
		done, err := f.Write(now, rng.Int63n(hot), bufpool.Borrowed(page("m", 128)), 1)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	s := f.Stats()
	if s.GCCopiedPages == 0 {
		t.Fatal("mixed-lifetime churn should force copies")
	}
	if s.WAF() <= 1.0 {
		t.Fatalf("WAF = %.3f, want > 1", s.WAF())
	}
}

func TestReclaimPreservesData(t *testing.T) {
	f := newTestFTL(t, 8)
	rng := rand.New(rand.NewSource(4))
	latest := make(map[int64]string)
	now := sim.Time(0)
	hot := f.Capacity() / 2
	for i := 0; i < int(f.Capacity())*4; i++ {
		lpa := rng.Int63n(hot)
		v := fmt.Sprintf("%d:%d", lpa, i)
		done, err := f.Write(now, lpa, bufpool.Borrowed(page(v, 128)), uint32(lpa%3))
		if err != nil {
			t.Fatal(err)
		}
		latest[lpa] = v
		now = done
	}
	if f.Stats().RUsReclaimed == 0 {
		t.Fatal("no reclaim happened")
	}
	for lpa, v := range latest {
		got, _, err := f.Read(now, lpa)
		if err != nil {
			t.Fatalf("read %d: %v", lpa, err)
		}
		if !bytes.Equal(got, page(v, 128)) {
			t.Fatalf("LPA %d corrupted after reclaim", lpa)
		}
	}
}

func TestStatsByPID(t *testing.T) {
	f := newTestFTL(t, 8)
	for i := int64(0); i < 6; i++ {
		if _, err := f.Write(0, i, bufpool.Borrowed(page("x", 128)), uint32(i%2+1)); err != nil {
			t.Fatal(err)
		}
	}
	s := f.Stats()
	if len(s.PIDs) != 8 || s.PIDs[1].HostWrites != 3 || s.PIDs[2].HostWrites != 3 {
		t.Fatalf("per-PID counters = %+v, want 8 streams with 3 writes on PIDs 1 and 2", s.PIDs)
	}
	// The returned table is a copy: mutating it leaves the FTL unchanged.
	s.PIDs[1] = PIDCount{HostWrites: 99, GCCopies: -5}
	if got := f.Stats().PIDs[1]; got != (PIDCount{HostWrites: 3}) {
		t.Fatalf("Stats leaked its stream table: PID 1 now reads %+v", got)
	}
	// No reclaim ran, so the device reports WAF exactly 1 — as does a device
	// that has not been written at all.
	if base := f.BaseStats(); base.HostWritePages != 6 || base.WAF() != 1.0 {
		t.Fatalf("base stats = %+v (WAF %v), want 6 host pages at WAF 1", base, base.WAF())
	}
	if (BaseStats{}).WAF() != 1.0 {
		t.Fatal("WAF of zero stats must be 1.0")
	}
}

func TestUsageSnapshot(t *testing.T) {
	f := newTestFTL(t, 8)
	if _, err := f.Write(0, 0, bufpool.Borrowed(page("x", 128)), 1); err != nil {
		t.Fatal(err)
	}
	usage := f.Usage()
	var open, free int
	for _, u := range usage {
		switch u.State {
		case "open":
			open++
			if u.PID != 1 || u.Valid != 1 {
				t.Fatalf("open RU usage = %+v", u)
			}
		case "free":
			free++
		}
	}
	if open != 1 || free != f.RUCount()-1 {
		t.Fatalf("open=%d free=%d of %d", open, free, f.RUCount())
	}
}

func TestDeallocateBounds(t *testing.T) {
	f := newTestFTL(t, 8)
	if err := f.Deallocate(-1, 1); err == nil {
		t.Fatal("negative TRIM accepted")
	}
	if err := f.Deallocate(0, f.Capacity()+1); err == nil {
		t.Fatal("oversized TRIM accepted")
	}
	if err := f.Deallocate(0, 0); err != nil {
		t.Fatal("empty TRIM rejected")
	}
}

func TestReadUnmappedFails(t *testing.T) {
	f := newTestFTL(t, 8)
	if _, _, err := f.Read(0, 1); err == nil {
		t.Fatal("read of unmapped LPA succeeded")
	}
	if _, _, err := f.Read(0, f.Capacity()); err == nil {
		t.Fatal("out-of-range read succeeded")
	}
}

// Property: integrity under random multi-PID traffic with TRIMs.
func TestFDPIntegrityProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		geo := nand.Geometry{Channels: 1, DiesPerChannel: 2, BlocksPerDie: 12, PagesPerBlock: 4, PageSize: 32}
		arr, err := nand.New(geo, nand.DefaultLatencies())
		if err != nil {
			return false
		}
		f, err := New(arr, Config{})
		if err != nil {
			return false
		}
		latest := make(map[int64][]byte)
		now := sim.Time(0)
		for i := 0; i < 250; i++ {
			lpa := rng.Int63n(f.Capacity()/2 + 1)
			if rng.Intn(6) == 0 {
				n := rng.Int63n(3) + 1
				if lpa+n > f.Capacity() {
					n = f.Capacity() - lpa
				}
				if err := f.Deallocate(lpa, n); err != nil {
					return false
				}
				for j := int64(0); j < n; j++ {
					delete(latest, lpa+j)
				}
				continue
			}
			v := []byte(fmt.Sprintf("%d.%d", seed, i))
			done, err := f.Write(now, lpa, bufpool.Borrowed(v), uint32(rng.Intn(3)))
			if err != nil {
				return false
			}
			latest[lpa] = v
			now = done
		}
		for lpa, v := range latest {
			got, _, err := f.Read(now, lpa)
			if err != nil || !bytes.Equal(got[:len(v)], v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Writes striped across an RU must exploit die parallelism: two consecutive
// same-PID page writes go to different dies.
func TestRUStripingParallelism(t *testing.T) {
	f := newTestFTL(t, 8)
	if _, err := f.Write(0, 0, bufpool.Borrowed(page("a", 128)), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(0, 1, bufpool.Borrowed(page("b", 128)), 1); err != nil {
		t.Fatal(err)
	}
	d0 := f.arr.DieOf(f.l2p[0])
	d1 := f.arr.DieOf(f.l2p[1])
	if d0 == d1 {
		t.Fatalf("consecutive RU pages on same die %d", d0)
	}
}

// FIFO reclaim-unit allocation must spread erases across blocks: after many
// log cycles, no block should have vastly more erases than another.
func TestWearLeveling(t *testing.T) {
	f := newTestFTL(t, 16)
	now := sim.Time(0)
	region := f.Capacity() / 4
	for round := 0; round < 40; round++ {
		for lpa := int64(0); lpa < region; lpa++ {
			done, err := f.Write(now, lpa, bufpool.Borrowed(page("w", 128)), 1)
			if err != nil {
				t.Fatal(err)
			}
			now = done
		}
		if err := f.Deallocate(0, region); err != nil {
			t.Fatal(err)
		}
	}
	w := f.arr.Wear()
	if w.TotalErases == 0 {
		t.Fatal("no erases happened")
	}
	if w.MaxErases-w.MinErases > w.MaxErases/2+2 {
		t.Fatalf("uneven wear: min=%d max=%d", w.MinErases, w.MaxErases)
	}
}

// GC-copy attribution: the per-PID reclaim-copy counters must decompose the
// global GCCopiedPages exactly, and bill only PIDs that owned victim RUs.
func TestGCCopyAttribution(t *testing.T) {
	f := newTestFTL(t, 8)
	rng := rand.New(rand.NewSource(21))
	now := sim.Time(0)
	hot := f.Capacity() / 2
	// PID 1 churns (mixed lifetimes within the stream => copies); PID 2
	// writes once and stays clean.
	coldBase := hot
	for i := int64(0); i < 4; i++ {
		done, err := f.Write(now, coldBase+i, bufpool.Borrowed(page("cold", 128)), 2)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	for i := 0; i < int(f.Capacity())*5; i++ {
		done, err := f.Write(now, rng.Int63n(hot), bufpool.Borrowed(page("m", 128)), 1)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	s := f.Stats()
	if s.GCCopiedPages == 0 {
		t.Fatal("churn never forced copies; enlarge the workload")
	}
	var sum int64
	for _, c := range s.PIDs {
		sum += c.GCCopies
	}
	if sum != s.GCCopiedPages {
		t.Fatalf("per-PID GC copies sum to %d, global counter says %d", sum, s.GCCopiedPages)
	}
	if s.PIDs[1].GCCopies == 0 {
		t.Fatal("churning PID 1 was billed no copies")
	}
}

// A tenant cannot escape its lease: out-of-lease local streams map to the
// device PID limit, and the device's own rejection fires.
func TestLeaseEscapeRejectedByDevice(t *testing.T) {
	f := newTestFTL(t, 8) // MaxPIDs defaults to 8 on the test geometry
	a, err := NewPIDAllocator(8)
	if err != nil {
		t.Fatal(err)
	}
	a.Acquire("t0", 4) //nolint:errcheck // layout setup
	l1, err := a.Acquire("t1", 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(0, 0, bufpool.Borrowed(page("x", 128)), l1.PID(3)); err != nil {
		t.Fatalf("in-lease stream rejected: %v", err)
	}
	if _, err := f.Write(0, 1, bufpool.Borrowed(page("x", 128)), l1.PID(4)); err == nil {
		t.Fatal("out-of-lease local stream 4 accepted by the device")
	}
}
