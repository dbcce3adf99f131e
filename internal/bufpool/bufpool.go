// Package bufpool provides the reference-counted, page-aligned buffer pool
// behind the zero-copy data plane: payload bytes are encoded once into a
// pooled segment and every lower layer (wal chain → uring submission →
// ssd/fdp/ftl → nand program) passes a reference to the same backing memory
// instead of copying it.
//
// # Ownership contract
//
// A Segment is acquired with refcount 1 (Pool.Get). Whoever holds a
// reference may read the bytes; only the producer that acquired the segment
// may write, and only append-only: bytes at offsets below any byte range
// that has been handed to another holder (a drained wal.Chain, a submitted
// device write) are immutable until every reference is released. A producer
// that must overwrite such bytes — the kernel-path page cache, which shares
// each flushed page's segment with the NAND array, and on a read miss
// retains the segment the array stores instead of copying it — copies on
// write: it moves to a fresh segment and releases its reference to the
// shared one. A reader that retains a stored segment that way becomes a
// holder like any other and takes over none of the producer's rights.
// Each holder releases exactly once (Release), or — when the release is the
// NAND array dropping a stored page, which lives until the page is
// invalidated or its block erased — with ReleaseAt, which parks the segment
// in a virtual-time quarantine until every in-flight reader horizon has
// passed (the same rule the PR-2 nand page arena enforced; that arena is
// folded into this pool).
//
// Releasing a reference you do not hold panics: refcounts never go
// negative, and under `-race` builds the panic carries the recorded
// acquire/release call sites. `-race` builds also overwrite a segment's
// bytes with a fixed pattern once its last reference is gone, so reading
// through a slice kept past Release shows up as corrupt data (see
// debug_race.go).
//
// # Determinism
//
// The pool consults only the simulation clock (SetClock) and allocates from
// append-only free lists, so runs remain bit-identical serial and parallel:
// each experiment cell owns one pool, single-runner like the engine itself.
// Backing chunks are recycled across cells through a process-global cache
// (Close), zeroed on reuse so a recycled chunk is bit-indistinguishable from
// freshly allocated memory.
package bufpool

import (
	"fmt"

	"github.com/slimio/slimio/internal/sim"
)

// Clock exposes the engine's current virtual time; quarantined segments
// become reusable only once the clock passes their ready time.
type Clock interface {
	Now() sim.Time
}

// chunkSegs is how many segments one backing allocation carves: big enough
// to amortize allocator pressure, small enough not to overshoot tiny runs.
const chunkSegs = 64

// Pool hands out fixed-size (page-size) reference-counted segments.
// Not safe for concurrent use; simulation context only (one pool per cell).
type Pool struct {
	segSize int
	clock   Clock

	chunk  []byte     // current carve source
	chunks [][]byte   // every chunk carved, returned to the chunk cache on Close
	free   []*Segment // LIFO free list
	// quar is a FIFO of finally-released segments whose quarantine has not
	// expired. Ready times are harvested conservatively in FIFO order: a
	// head with a later ready time only delays reuse of what follows, never
	// allows early reuse.
	quar    []*Segment
	quarOff int

	inFlight  int64
	allocated int64
}

// New builds a pool of segSize-byte segments (the device page size).
func New(segSize int) *Pool {
	if segSize <= 0 {
		panic(fmt.Sprintf("bufpool: invalid segment size %d", segSize))
	}
	return &Pool{segSize: segSize}
}

// SetClock attaches the simulation clock. Without a clock the pool still
// recycles plainly-released segments but keeps quarantined ones parked
// forever (always safe, just less economical).
func (p *Pool) SetClock(c Clock) { p.clock = c }

// SegSize reports the fixed segment size.
func (p *Pool) SegSize() int { return p.segSize }

// InFlight reports how many segments currently have a non-zero refcount.
// Experiment teardown asserts this reaches zero after every layer releases
// (the leak detector of DESIGN.md §3 "Buffer ownership").
func (p *Pool) InFlight() int64 { return p.inFlight }

// Allocated reports how many segments the pool ever carved (footprint).
func (p *Pool) Allocated() int64 { return p.allocated }

// Get returns a segment with refcount 1 and undefined contents.
func (p *Pool) Get() *Segment {
	if p.clock != nil {
		p.harvest(p.clock.Now())
	}
	var s *Segment
	if n := len(p.free); n > 0 {
		s = p.free[n-1]
		p.free = p.free[:n-1]
		s.recycled = true
	} else {
		s = p.carve()
	}
	s.refs = 1
	s.ready = 0
	p.inFlight++
	debugAcquire(s)
	return s
}

// harvest moves quarantined segments whose ready time has passed onto the
// free list, compacting the FIFO's consumed prefix once it dominates.
func (p *Pool) harvest(now sim.Time) {
	for p.quarOff < len(p.quar) && p.quar[p.quarOff].ready < now {
		debugPoison(p.quar[p.quarOff])
		p.free = append(p.free, p.quar[p.quarOff])
		p.quar[p.quarOff] = nil
		p.quarOff++
	}
	if p.quarOff > len(p.quar)/2 && p.quarOff > 0 {
		n := copy(p.quar, p.quar[p.quarOff:])
		for i := n; i < len(p.quar); i++ {
			p.quar[i] = nil
		}
		p.quar = p.quar[:n]
		p.quarOff = 0
	}
}

// carve cuts a fresh segment out of the current backing chunk.
func (p *Pool) carve() *Segment {
	if len(p.chunk) < p.segSize {
		p.chunk = getChunk(chunkSegs * p.segSize)
		p.chunks = append(p.chunks, p.chunk)
	}
	b := p.chunk[:p.segSize:p.segSize]
	p.chunk = p.chunk[p.segSize:]
	p.allocated++
	return &Segment{pool: p, b: b}
}

// put files a finally-released segment for reuse.
func (p *Pool) put(s *Segment) {
	p.inFlight--
	if s.ready == 0 || (p.clock != nil && s.ready < p.clock.Now()) {
		debugPoison(s)
		p.free = append(p.free, s)
		return
	}
	p.quar = append(p.quar, s)
}

// Segment is one pooled, fixed-size buffer.
type Segment struct {
	pool  *Pool
	b     []byte
	refs  int32
	ready sim.Time   // latest quarantine deadline seen via ReleaseAt
	dbg   *debugInfo // acquire/release sites, race builds only
	// recycled is set once the segment has come off the free list: its
	// bytes were last written a whole reuse cycle ago and are likely out of
	// cache. A segment still on its first use was carved from a chunk that
	// getChunk has just cleared.
	recycled bool
}

// Bytes returns the segment's full backing slice (len == cap == SegSize).
// The slice is valid only while the caller holds a reference; `-race`
// builds overwrite it once the last reference is released.
func (s *Segment) Bytes() []byte { return s.b }

// Fill copies b to the front of the segment and returns the filled prefix,
// s.Bytes()[:len(b)]. A recycled segment is filled with StreamCopy, whose
// stores bypass the cache instead of first reading the cold lines they
// overwrite; a segment on its first use takes plain copy, since the chunk it
// was carved from is still in cache from its clear.
func (s *Segment) Fill(b []byte) []byte {
	dst := s.b[:len(b)]
	if s.recycled {
		StreamCopy(dst, b)
	} else {
		copy(dst, b)
	}
	return dst
}

// Refs reports the current reference count (test hook).
func (s *Segment) Refs() int { return int(s.refs) }

// Retain adds a reference (e.g. the NAND array storing the page, or the wal
// buffer keeping the shared tail segment across a drain).
func (s *Segment) Retain() {
	if s.refs <= 0 {
		panic(fmt.Sprintf("bufpool: Retain on dead segment (refs=%d)%s", s.refs, debugDump(s)))
	}
	s.refs++
	debugAcquire(s)
}

// Release drops a reference; the final release recycles the segment
// (honoring any quarantine deadline recorded by ReleaseAt).
func (s *Segment) Release() {
	debugRelease(s)
	s.refs--
	if s.refs < 0 {
		panic(fmt.Sprintf("bufpool: double release (refs=%d)%s", s.refs, debugDump(s)))
	}
	if s.refs == 0 {
		s.pool.put(s)
	}
}

// ReleaseAt drops a reference like Release but records that the backing
// bytes may still be read until the virtual instant ready (the NAND array
// recycles a discarded or erased page only after every read horizon has
// passed). The latest deadline wins when several stored copies of the
// segment go.
func (s *Segment) ReleaseAt(ready sim.Time) {
	if ready > s.ready {
		s.ready = ready
	}
	s.Release()
}

// Ref is a borrowed-or-owned view of payload bytes: B is what gets written,
// Seg is the pooled segment backing it (nil when the bytes are plain Go
// memory a consumer must copy, e.g. metadata records or preconditioning
// payloads). The holder of a Ref with a non-nil Seg owns one reference
// unless the API it passed the Ref to documents an ownership transfer.
type Ref struct {
	Seg *Segment
	B   []byte
}

// Borrowed wraps non-pooled bytes: consumers that need the data past the
// call must copy it.
func Borrowed(b []byte) Ref { return Ref{B: b} }

// Retain adds a reference when the view is pooled (no-op for borrowed).
func (r Ref) Retain() {
	if r.Seg != nil {
		r.Seg.Retain()
	}
}

// Release drops the view's reference when pooled (no-op for borrowed).
func (r Ref) Release() {
	if r.Seg != nil {
		r.Seg.Release()
	}
}
