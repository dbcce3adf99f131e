package bufpool

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestStreamCopyMatchesCopy holds StreamCopy to copy byte for byte at every
// destination and source alignment within a cache line, across the lengths
// where its head/blocks/tail split changes shape (on amd64 non-race builds;
// elsewhere StreamCopy is copy). The whole destination buffer must come out
// as copy leaves it, so a byte written outside dst or a byte of dst left
// unwritten fails, and src must be unchanged.
func TestStreamCopyMatchesCopy(t *testing.T) {
	lengths := []int{0, 1, 63, 64, 1023, 1024, 1025, 4095, 4096, 4097, 3*4096 + 17}
	const align, extra = 64, 9
	maxLen := lengths[len(lengths)-1]
	rng := rand.New(rand.NewSource(1))
	srcBuf := make([]byte, align+maxLen+extra)
	rng.Read(srcBuf)
	srcWant := bytes.Clone(srcBuf)
	guard := bytes.Repeat([]byte{0xEE}, align+maxLen+extra+align)
	got, want := bytes.Clone(guard), bytes.Clone(guard)
	for _, n := range lengths {
		for da := 0; da < align; da++ {
			for sa := 0; sa < align; sa++ {
				// Vary which side is longer, as copy copies the shorter.
				dl, sl := n, n
				switch (da + sa) % 3 {
				case 1:
					dl += extra
				case 2:
					sl += extra
				}
				src := srcBuf[sa : sa+sl]
				wn := copy(want[da:da+dl], src)
				gn := StreamCopy(got[da:da+dl], src)
				if gn != wn || !bytes.Equal(got, want) {
					t.Fatalf("n=%d dst+%d (len %d) src+%d (len %d): StreamCopy returned %d, differs from copy (returned %d)", n, da, dl, sa, sl, gn, wn)
				}
				if !bytes.Equal(srcBuf, srcWant) {
					t.Fatalf("n=%d dst+%d src+%d: StreamCopy modified src", n, da, sa)
				}
				copy(got[da:da+dl], guard)
				copy(want[da:da+dl], guard)
			}
		}
	}
}

// TestStreamCopyOverlap: overlapping slices get copy's memmove semantics.
func TestStreamCopyOverlap(t *testing.T) {
	const n = 8192
	base := make([]byte, n+200)
	rand.New(rand.NewSource(2)).Read(base)
	for _, shift := range []int{-100, -1, 1, 100} {
		got, want := bytes.Clone(base), bytes.Clone(base)
		d, s := 100, 100+shift
		copy(want[d:d+n], want[s:s+n])
		StreamCopy(got[d:d+n], got[s:s+n])
		if !bytes.Equal(got, want) {
			t.Fatalf("shift %d: overlapping StreamCopy differs from copy", shift)
		}
	}
}

// TestFillProvenance: a segment on its first use, carved from a chunk that
// getChunk has just cleared, is filled with plain copy; a segment that came
// off the free list — after a plain release, or once its quarantine is
// harvested — is filled with StreamCopy. Either way Fill writes b to the
// front of the segment and returns that prefix.
func TestFillProvenance(t *testing.T) {
	payload := make([]byte, 4096)
	rand.New(rand.NewSource(3)).Read(payload)
	check := func(what string, s *Segment, recycled bool) {
		t.Helper()
		if s.recycled != recycled {
			t.Fatalf("%s: recycled = %v, want %v", what, s.recycled, recycled)
		}
		for _, n := range []int{4096, 1500, 7} {
			b := payload[len(payload)-n:]
			got := s.Fill(b)
			if len(got) != n || &got[0] != &s.Bytes()[0] || !bytes.Equal(got, b) {
				t.Fatalf("%s: Fill(%d bytes) did not put them at the segment's front", what, n)
			}
		}
	}
	clk := &fakeClock{}
	p := New(4096)
	p.SetClock(clk)

	carved := p.Get()
	check("carved", carved, false)
	carved.Release()
	plain := p.Get()
	if plain != carved {
		t.Fatalf("plainly released segment was not recycled")
	}
	check("recycled after Release", plain, true)

	plain.ReleaseAt(100)
	clk.now = 50
	second := p.Get()
	check("carved while the first is quarantined", second, false)
	clk.now = 101
	harvested := p.Get()
	if harvested != plain {
		t.Fatalf("quarantined segment was not harvested")
	}
	check("recycled after quarantine", harvested, true)
	second.Release()
	harvested.Release()

	// A pool whose chunk comes from the chunk cache still carves: the chunk
	// was cleared on reuse, so its segments are first uses.
	p.Close()
	q := New(4096)
	reused := q.Get()
	check("carved from a cached chunk", reused, false)
	reused.Release()
	q.Close()
}
