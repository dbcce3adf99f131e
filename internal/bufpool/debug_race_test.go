//go:build race

package bufpool

import (
	"bytes"
	"testing"
)

func poisoned(b []byte) bool {
	return bytes.Count(b, []byte{poisonByte}) == len(b)
}

// TestReleasedBytesPoisoned: race builds overwrite a segment's bytes once
// its last reference is gone — at a plain final Release, and for a
// quarantined release only when the quarantine expires — so a slice kept
// past Release reads the pattern rather than the old payload.
func TestReleasedBytesPoisoned(t *testing.T) {
	clk := &fakeClock{}
	p := New(64)
	p.SetClock(clk)

	s := p.Get()
	b := s.Bytes()
	copy(b, "payload")
	s.Retain()
	s.Release()
	if !bytes.HasPrefix(b, []byte("payload")) {
		t.Fatal("bytes overwritten while a reference remains")
	}
	s.Release()
	if !poisoned(b) {
		t.Fatalf("final Release left %q in place", b[:8])
	}

	q := p.Get() // s again: the free list is LIFO
	qb := q.Bytes()
	copy(qb, "stored")
	q.ReleaseAt(100)
	clk.now = 50
	other := p.Get() // harvests, but the quarantine has not expired
	if !bytes.HasPrefix(qb, []byte("stored")) {
		t.Fatal("quarantined bytes overwritten before the quarantine expired")
	}
	clk.now = 101
	if got := p.Get(); got != q || !poisoned(qb) {
		t.Fatalf("expired quarantine: got segment %p (want %p), bytes %q", got, q, qb[:8])
	}
	other.Release()
}
