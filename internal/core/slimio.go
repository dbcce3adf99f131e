package core

import (
	"bytes"
	"fmt"

	"github.com/slimio/slimio/internal/bufpool"
	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/nand"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/ssd"
	"github.com/slimio/slimio/internal/uring"
	"github.com/slimio/slimio/internal/vtrace"
	"github.com/slimio/slimio/internal/wal"
)

// Backend is the SlimIO persistence backend. It satisfies imdb.Backend.
type Backend struct {
	eng      *sim.Engine
	dev      *ssd.Device
	cfg      Config
	lay      layout
	pageSize int64

	walRing *uring.Ring

	meta       metaRecord
	metaCursor int64

	// Current (open) segment state. The segment begins at curHead(), right
	// after the sealed segments recorded in the metadata segment table.
	// The partial tail page lives in a pooled segment (walTailSeg) that is
	// usually the very segment the engine's WAL buffer is still encoding
	// into: the open page's first walBytes%pageSize bytes are immutable
	// (append-only), so tail rewrites submit the same memory, zero-copy.
	walBytes      int64            // bytes appended to the open segment, tail included
	walFullPages  int64            // complete pages written to the device
	walTailSeg    *bufpool.Segment // backend-owned ref to the partial tail page
	walTailSynced int              // tail bytes already submitted to the device
	pool          *bufpool.Pool

	// staged holds pooled segment references the backend owns mid-call: the
	// chain WALAppend is consuming. Every wait point in the append path
	// (inflight reap, ring submission) can freeze the calling process at a
	// simulated power cut; references move off this list in the same
	// straight-line step that hands them to the ring or a field, so Close
	// releases exactly what a cut stranded.
	staged []*bufpool.Segment

	// outstanding holds completion signals of in-flight async WAL writes;
	// WALSync reaps them (the paper's dedicated CQ-handling thread keeps
	// the main process from ever blocking on individual submissions). The
	// set is bounded by maxWALInflight: when the device falls behind
	// (e.g. garbage collection on a non-FDP drive), the writer blocks on
	// the oldest completion — the direct-write exposure of Figure 4.
	outstanding []*sim.Signal

	snapGen int
	sinks   []*slotSink // every sink ever opened, for teardown accounting
	stats   Stats
}

var _ imdb.Backend = (*Backend)(nil)

// New formats dev with the SlimIO layout and returns a ready backend. All
// prior content of the LBA space is ignored (mkfs semantics).
func New(eng *sim.Engine, dev *ssd.Device, cfg Config) (*Backend, error) {
	cfg.fillDefaults(dev.Capacity())
	lay, err := computeLayout(dev.Capacity(), cfg)
	if err != nil {
		return nil, err
	}
	b := &Backend{
		eng:      eng,
		dev:      dev,
		cfg:      cfg,
		lay:      lay,
		pageSize: int64(dev.PageSize()),
		pool:     dev.FTL().Array().Pool(),
		walRing:  uring.NewRing(eng, dev, "wal-path", uring.Config{Trace: cfg.Trace}),
	}
	if b.pool.SegSize() != dev.PageSize() {
		return nil, fmt.Errorf("core: pool segment size %d != device page size %d", b.pool.SegSize(), dev.PageSize())
	}
	return b, nil
}

// Close releases pooled buffers the backend still holds and drops commands
// frozen in its rings' submission queues (only a simulated power cut leaves
// any). Teardown only: experiment cells call it before asserting pool
// quiescence.
func (b *Backend) Close() {
	b.walRing.DropPending()
	if b.walTailSeg != nil {
		b.walTailSeg.Release()
		b.walTailSeg = nil
	}
	for _, s := range b.staged {
		s.Release()
	}
	b.staged = nil
	b.outstanding = nil
	for _, s := range b.sinks {
		s.drop()
	}
	b.sinks = nil
}

// Label names the backend for reports.
func (b *Backend) Label() string { return "slimio" }

// Stats returns cumulative backend counters.
func (b *Backend) Stats() Stats { return b.stats }

// WALRing exposes the WAL-Path ring (for stats).
func (b *Backend) WALRing() *uring.Ring { return b.walRing }

// SnapshotRing exposes the most recent Snapshot-Path ring, or nil when no
// snapshot sink has been opened yet. Each snapshot generation gets its own
// ring; telemetry probes sample whichever is current.
func (b *Backend) SnapshotRing() *uring.Ring {
	if len(b.sinks) == 0 {
		return nil
	}
	return b.sinks[len(b.sinks)-1].ring
}

// Slots reports the snapshot slot states for inspection.
func (b *Backend) Slots() []SlotInfo {
	out := make([]SlotInfo, 3)
	for i := 0; i < 3; i++ {
		out[i] = SlotInfo{
			Index: i,
			Role:  b.meta.slotRoles[i].String(),
			Start: b.lay.slotStart[i],
			Pages: b.lay.slotPages,
			Used:  b.meta.slotBytes[i],
		}
	}
	return out
}

// writeMeta persists the current metadata record through ring as one atomic
// page write into the cyclic metadata region.
func (b *Backend) writeMeta(env *sim.Env, ring *uring.Ring) error {
	b.meta.seq++
	lpa := b.lay.metaStart + b.metaCursor%b.lay.metaPages
	b.metaCursor++
	b.stats.MetadataWrites++
	tr := b.cfg.Trace
	span := tr.Begin("core", "meta.write", tr.Scope(), env.Now())
	tr.SetScope(span)
	err := ring.Write(env, lpa, []bufpool.Ref{bufpool.Borrowed(b.meta.encode())}, PIDMetadata)
	tr.SetScope(0)
	tr.End(span, env.Now())
	return err
}

// sealedPages is the total page count of all sealed segments.
func (b *Backend) sealedPages() int64 {
	var p int64
	for _, l := range b.meta.sealedLens[:b.meta.sealed] {
		p += pagesNeeded(l, b.pageSize)
	}
	return p
}

// curHead is the ring offset (pages) where the current open segment begins.
func (b *Backend) curHead() int64 {
	return (b.meta.walHead + b.sealedPages()) % b.lay.walPages
}

// walLPA maps a page offset within the open segment to a device LPA.
func (b *Backend) walLPA(pageOff int64) int64 {
	return b.lay.walStart + (b.curHead()+pageOff)%b.lay.walPages
}

// WALAppend writes log bytes at the open segment's tail through the
// WAL-Path. Complete pages are submitted asynchronously (reaped by WALSync
// or when the in-flight bound is hit); the partial tail stays buffered until
// WALSync. Passthru writes are durable on completion — there is no page
// cache to flush behind them.
//
// The chain's references transfer to the backend on success, and the append
// is zero-copy: the chain continues the open page (see imdb.Backend), so its
// segments ARE the device pages and are handed to the ring as-is. A chain
// that does not is refused. On error nothing is consumed and ownership stays
// with the caller.
func (b *Backend) WALAppend(env *sim.Env, data wal.Chain) error {
	n := int64(data.Len())
	if n == 0 {
		data.Release()
		return nil
	}
	needed := b.sealedPages() + (b.walBytes+n+b.pageSize-1)/b.pageSize
	if needed > b.lay.walPages {
		return fmt.Errorf("core: WAL region full (%d pages): %w", b.lay.walPages, imdb.ErrLogFull)
	}
	// The first segment must be a device page holding the open page's bytes
	// below Off: the backend's own tail segment or, first after a recovery,
	// a segment whose bytes equal recovery's copy of the page, which
	// appendAligned then drops for it.
	first, fill := data.Segs[0], int(b.walBytes%b.pageSize)
	if len(first.Bytes()) != int(b.pageSize) || data.Off != fill ||
		fill > 0 && first != b.walTailSeg && !bytes.Equal(first.Bytes()[:fill], b.walTailSeg.Bytes()[:fill]) {
		return fmt.Errorf("core: WAL chain at offset %d does not continue the open page (fill %d)", data.Off, fill)
	}
	tr := b.cfg.Trace
	span := tr.Begin("core", "wal.append", tr.Scope(), env.Now())
	tr.SetArg(span, n)
	defer func() { tr.End(span, env.Now()) }()

	// Stage the chain where a frozen power cut can reach it before the first
	// wait point below.
	b.staged = append(b.staged[:0], data.Segs...)

	// Bounded submission: reap oldest completions when too many commands
	// are in flight.
	for len(b.outstanding) > maxWALInflight {
		sig := b.outstanding[0]
		b.outstanding = b.outstanding[1:]
		t := env.Now()
		cqe := sig.Wait(env).(*uring.CQE)
		tr.Emit("core", "inflight.wait", span, t, env.Now(), 0)
		if cqe.Err != nil {
			// Ownership returns to the caller with every reference intact.
			b.staged = b.staged[:0]
			return cqe.Err
		}
	}

	b.appendAligned(env, span, data)
	b.walBytes += n
	return nil
}

// appendAligned adopts the chain's segments as device pages: full segments
// go straight to the ring (reference transfer), the partial last segment
// becomes the new tail.
func (b *Backend) appendAligned(env *sim.Env, span vtrace.SpanID, c wal.Chain) {
	segs := c.Segs
	fullCount := len(segs)
	var newTail *bufpool.Segment
	if c.End < int(b.pageSize) {
		fullCount--
		newTail = segs[len(segs)-1]
	}
	if fullCount > 0 {
		b.submitFull(env, span, segs[:fullCount])
		if b.walTailSeg != nil {
			// The old partial tail page just went out as part of the
			// chain's first full segment; drop the backend's own ref.
			b.walTailSeg.Release()
			b.walTailSeg = nil
		}
		b.walTailSynced = 0
	}
	if newTail != nil {
		if newTail == b.walTailSeg {
			// The chain fit inside the already-held open page: its tail
			// reference duplicates the backend's.
			newTail.Release()
		} else {
			if b.walTailSeg != nil {
				b.walTailSeg.Release() // recovery's copy of the open page
			}
			b.walTailSeg = newTail // adopt the chain's reference
		}
		b.unstage(1)
	}
}

// unstage removes the first n staged segments — their references just moved
// to the ring or a backend field in the same straight-line step.
func (b *Backend) unstage(n int) {
	k := copy(b.staged, b.staged[n:])
	for i := k; i < len(b.staged); i++ {
		b.staged[i] = nil
	}
	b.staged = b.staged[:k]
}

// submitFull hands full-page segments to the WAL ring — one reference per
// segment transfers to the ring — splitting runs at ring wrap boundaries.
func (b *Backend) submitFull(env *sim.Env, span vtrace.SpanID, segs []*bufpool.Segment) {
	tr := b.cfg.Trace
	idx := 0
	for _, run := range splitWrap(b.lay.walStart, b.lay.walPages, b.curHead()+b.walFullPages, int64(len(segs))) {
		pages := make([]bufpool.Ref, run.n)
		for i := range pages {
			s := segs[idx]
			pages[i] = bufpool.Ref{Seg: s, B: s.Bytes()}
			idx++
		}
		// The run's references move to the ring (registered at Submit entry);
		// unstage them in the same straight-line step.
		b.unstage(int(run.n))
		tr.SetScope(span)
		sig := b.walRing.WriteAsync(env, run.start, pages, PIDWAL)
		tr.SetScope(0)
		b.outstanding = append(b.outstanding, sig)
	}
	b.walFullPages += int64(len(segs))
	b.stats.WALPageWrites += int64(len(segs))
}

// WALSync submits the partial tail page (if any un-synced bytes exist) and
// reaps every outstanding WAL write completion, after which all appended
// bytes are durable. Safe to run from a background process concurrently
// with further WALAppend calls: it takes ownership of the current
// outstanding set, and later appends accumulate into a fresh one.
func (b *Backend) WALSync(env *sim.Env) error {
	tr := b.cfg.Trace
	span := tr.Begin("core", "wal.sync", tr.Scope(), env.Now())
	defer func() { tr.End(span, env.Now()) }()
	b.writeTail(env, span)
	pending := b.outstanding
	b.outstanding = nil
	var firstErr error
	t := env.Now()
	for _, sig := range pending {
		if cqe := sig.Wait(env).(*uring.CQE); cqe.Err != nil && firstErr == nil {
			firstErr = cqe.Err
		}
	}
	if len(pending) > 0 {
		tr.Emit("core", "reap.wait", span, t, env.Now(), int64(len(pending)))
	}
	return firstErr
}

// writeTail submits the open page's bytes no WAL write has covered yet, if
// any, under span. Zero-copy tail rewrite: it submits a view of the live
// tail segment. The first fill bytes are immutable (append-only log), so the
// engine may keep encoding past them while the write is in flight; the next
// WALSync reaps it.
func (b *Backend) writeTail(env *sim.Env, span vtrace.SpanID) {
	fill := int(b.walBytes % b.pageSize)
	if fill == 0 || b.walTailSynced == fill {
		return
	}
	tr := b.cfg.Trace
	lpa := b.walLPA(b.walFullPages)
	b.walTailSeg.Retain() // the ring releases its reference after issue
	tr.SetScope(span)
	sig := b.walRing.WriteAsync(env, lpa,
		[]bufpool.Ref{{Seg: b.walTailSeg, B: b.walTailSeg.Bytes()[:fill]}}, PIDWAL)
	tr.SetScope(0)
	b.outstanding = append(b.outstanding, sig)
	b.walTailSynced = fill
	b.stats.WALTailRewrites++
}

// WALDurableSize reports bytes appended to the open segment.
func (b *Backend) WALDurableSize() int64 { return b.walBytes }

// WALRotate seals the open segment into the metadata segment table and
// opens a new one immediately after it in the ring — the fork-point log
// rotation of a WAL-Snapshot. Costs one metadata page write, plus the write
// of the open page's unsynced tail, which the next WALSync reaps, so that
// WALSync makes the sealed segment durable too. An empty segment with none
// sealed before it is renumbered instead, and one behind sealed segments is
// sealed with length 0, so every rotation moves the open segment one
// generation on.
func (b *Backend) WALRotate(env *sim.Env) error {
	if b.walBytes == 0 && b.meta.sealed == 0 {
		b.meta.walRetired++
		return b.writeMeta(env, b.walRing)
	}
	if b.meta.sealed == maxSealedSegments {
		return fmt.Errorf("core: too many sealed WAL segments (%d)", maxSealedSegments)
	}
	b.writeTail(env, b.cfg.Trace.Scope())
	b.meta.sealedLens[b.meta.sealed] = b.walBytes
	b.meta.sealed++
	b.walBytes = 0
	b.walFullPages = 0
	if b.walTailSeg != nil {
		b.walTailSeg.Release()
		b.walTailSeg = nil
	}
	b.walTailSynced = 0
	b.stats.WALRotations++
	return b.writeMeta(env, b.walRing)
}

// WALDiscardOld deallocates every sealed segment and advances the ring head
// past them — called once a WAL-Snapshot commit made the old log obsolete.
// The TRIM is what lets an FDP device reclaim the WAL's reclaim units
// without copying (§4.3).
func (b *Backend) WALDiscardOld(env *sim.Env) error {
	if b.meta.sealed == 0 {
		return nil
	}
	used := b.sealedPages() // > 0: the oldest sealed segment is never empty
	for _, run := range splitWrap(b.lay.walStart, b.lay.walPages, b.meta.walHead, used) {
		if err := b.walRing.Deallocate(env, run.start, run.n); err != nil {
			return err
		}
		b.stats.DeallocatedPages += run.n
	}
	b.meta.walHead = (b.meta.walHead + used) % b.lay.walPages
	b.meta.walRetired += uint64(b.meta.sealed)
	b.meta.sealedLens = [maxSealedSegments]int64{}
	b.meta.sealed = 0
	b.stats.WALResets++
	return b.writeMeta(env, b.walRing)
}

// slotSink streams a snapshot image into the Reserve slot via a dedicated
// Snapshot-Path ring. Chunks are copied once — out of the snapshot writer's
// reused compression frame into pooled segments — and those segments are
// what the device programs.
type slotSink struct {
	be          *Backend
	ring        *uring.Ring
	kind        imdb.SnapshotKind
	slot        int
	off         int64            // bytes written
	tailSeg     *bufpool.Segment // sink-owned ref to the partial tail page
	outstanding []*sim.Signal
}

// drop releases teardown-time leftovers: the partial tail and any commands
// frozen in the sink's ring (a power cut mid-snapshot leaves both).
func (s *slotSink) drop() {
	s.ring.DropPending()
	if s.tailSeg != nil {
		s.tailSeg.Release()
		s.tailSeg = nil
	}
}

// reap waits out all in-flight slot writes.
func (s *slotSink) reap(env *sim.Env) error {
	var firstErr error
	for _, sig := range s.outstanding {
		if cqe := sig.Wait(env).(*uring.CQE); cqe.Err != nil && firstErr == nil {
			firstErr = cqe.Err
		}
	}
	s.outstanding = s.outstanding[:0]
	return firstErr
}

func (s *slotSink) Write(env *sim.Env, chunk []byte) error {
	b := s.be
	if (s.off+int64(len(chunk))+b.pageSize-1)/b.pageSize > b.lay.slotPages {
		return fmt.Errorf("core: snapshot exceeds slot size (%d pages)", b.lay.slotPages)
	}
	tr := b.cfg.Trace
	span := tr.Begin("core", "slot.write", tr.Scope(), env.Now())
	tr.SetArg(span, int64(len(chunk)))
	defer func() { tr.End(span, env.Now()) }()
	ps := int(b.pageSize)
	fill := int(s.off % b.pageSize)
	startPage := s.off / b.pageSize // page the current tail (or chunk start) lands on
	var pages []bufpool.Ref
	for src := chunk; len(src) > 0; {
		if s.tailSeg == nil {
			s.tailSeg = b.pool.Get()
		}
		n := copy(s.tailSeg.Bytes()[fill:], src)
		fill += n
		src = src[n:]
		if fill == ps {
			// The sink's reference moves to the ring with the page.
			pages = append(pages, bufpool.Ref{Seg: s.tailSeg, B: s.tailSeg.Bytes()})
			s.tailSeg = nil
			fill = 0
		}
	}
	s.off += int64(len(chunk))
	if len(pages) == 0 {
		return nil
	}
	// Submit asynchronously: the SQPOLL poller dispatches while the
	// snapshot process compresses the next chunk, overlapping CPU and
	// device time (§4.1).
	tr.SetScope(span)
	sig := s.ring.WriteAsync(env, b.lay.slotStart[s.slot]+startPage, pages, s.pid())
	tr.SetScope(0)
	s.outstanding = append(s.outstanding, sig)
	b.stats.SnapshotPageWrites += int64(len(pages))
	return nil
}

func (s *slotSink) pid() uint32 {
	if s.kind == imdb.OnDemandSnapshot {
		return PIDOnDemand
	}
	return PIDWALSnapshot
}

// Commit flushes the tail, promotes the Reserve slot to its kind with one
// atomic metadata write, and deallocates the superseded image.
func (s *slotSink) Commit(env *sim.Env) error {
	b := s.be
	tr := b.cfg.Trace
	span := tr.Begin("core", "slot.commit", tr.Scope(), env.Now())
	defer func() { tr.End(span, env.Now()) }()
	if fill := int(s.off % b.pageSize); fill > 0 && s.tailSeg != nil {
		lpa := b.lay.slotStart[s.slot] + (s.off-int64(fill))/b.pageSize
		// The sink's reference moves to the ring with the partial page,
		// before the submission can park: a power cut there leaves the page
		// to the ring's DropPending alone.
		tail := s.tailSeg
		s.tailSeg = nil
		tr.SetScope(span)
		sig := s.ring.WriteAsync(env, lpa, []bufpool.Ref{{Seg: tail, B: tail.Bytes()[:fill]}}, s.pid())
		tr.SetScope(0)
		s.outstanding = append(s.outstanding, sig)
		b.stats.SnapshotPageWrites++
	}
	// The image must be fully durable before the promotion record points
	// at it.
	t := env.Now()
	if err := s.reap(env); err != nil {
		return err
	}
	tr.Emit("core", "reap.wait", span, t, env.Now(), 0)
	target := roleWALSnap
	if s.kind == imdb.OnDemandSnapshot {
		target = roleOnDemand
	}
	oldSlot := -1
	for i := 0; i < 3; i++ {
		if b.meta.slotRoles[i] == target {
			oldSlot = i
			break
		}
	}
	b.meta.slotRoles[s.slot] = target
	b.meta.slotBytes[s.slot] = s.off
	var oldBytes int64
	if oldSlot >= 0 {
		oldBytes = b.meta.slotBytes[oldSlot]
		b.meta.slotRoles[oldSlot] = roleReserve
		b.meta.slotBytes[oldSlot] = 0
	}
	tr.SetScope(span)
	err := b.writeMeta(env, s.ring)
	tr.SetScope(0)
	if err != nil {
		return err
	}
	b.stats.Promotions++
	if oldSlot >= 0 && oldBytes > 0 {
		n := pagesNeeded(oldBytes, b.pageSize)
		if err := s.ring.Deallocate(env, b.lay.slotStart[oldSlot], n); err != nil {
			return err
		}
		b.stats.DeallocatedPages += n
	}
	return nil
}

// Abort discards the partial image, returning the slot to Reserve duty.
func (s *slotSink) Abort(env *sim.Env) error {
	b := s.be
	_ = s.reap(env) // drain in-flight writes before trimming under them
	if s.tailSeg != nil {
		s.tailSeg.Release()
		s.tailSeg = nil
	}
	n := pagesNeeded(s.off-s.off%b.pageSize, b.pageSize)
	if n == 0 {
		return nil
	}
	err := s.ring.Deallocate(env, b.lay.slotStart[s.slot], n)
	if err == nil {
		b.stats.DeallocatedPages += n
	}
	return err
}

// BeginSnapshot picks the Reserve slot and opens a fresh SQPOLL
// Snapshot-Path ring owned by the calling (snapshot) process.
func (b *Backend) BeginSnapshot(env *sim.Env, kind imdb.SnapshotKind) (imdb.SnapshotSink, error) {
	slot := -1
	for i := 0; i < 3; i++ {
		if b.meta.slotRoles[i] == roleReserve {
			slot = i
			break
		}
	}
	if slot < 0 {
		return nil, fmt.Errorf("core: no Reserve slot available")
	}
	b.snapGen++
	ring := uring.NewRing(b.eng, b.dev, fmt.Sprintf("snapshot-path-%d", b.snapGen),
		uring.Config{SQPoll: !b.cfg.SnapshotNoSQPoll, Trace: b.cfg.Trace})
	sink := &slotSink{be: b, ring: ring, kind: kind, slot: slot}
	b.sinks = append(b.sinks, sink)
	return sink, nil
}

// Recover implements §4.2's procedure: scan the metadata region for the
// newest valid record, load the preferred snapshot image (the WAL-coupled
// one) through the read-ahead reader, and scan the WAL segments for the
// record stream. It also restores the backend's in-memory tail state so
// appends can continue.
func (b *Backend) Recover(env *sim.Env) (*imdb.Recovered, error) {
	// 1. Metadata: newest valid record wins.
	var newest *metaRecord
	var newestIdx int64 = -1
	for i := int64(0); i < b.lay.metaPages; i++ {
		pages, err := b.walRing.Read(env, b.lay.metaStart+i, 1)
		if err != nil {
			continue // unwritten page
		}
		rec, err := decodeMetaRecord(pages[0])
		if err != nil {
			continue
		}
		if newest == nil || rec.seq > newest.seq {
			newest, newestIdx = rec, i
		}
	}
	out := &imdb.Recovered{WALTruncatedAt: -1}
	if newest != nil {
		b.meta = *newest
		b.metaCursor = newestIdx + 1
	}
	// With no metadata record yet (format-fresh device that never rotated
	// or committed a snapshot), the zero-value state is correct: WAL head
	// at 0, no sealed segments, all slots Reserve — so the scans below
	// still run.

	// 2. Snapshot: the WAL-coupled image first.
	find := func(role slotRole, kind imdb.SnapshotKind) int {
		for i := 0; i < 3; i++ {
			if b.meta.slotRoles[i] == role && b.meta.slotBytes[i] > 0 {
				out.Kind = kind
				return i
			}
		}
		return -1
	}
	slot := find(roleWALSnap, imdb.WALSnapshot)
	if slot < 0 {
		slot = find(roleOnDemand, imdb.OnDemandSnapshot)
	}
	if slot >= 0 {
		n := pagesNeeded(b.meta.slotBytes[slot], b.pageSize)
		pages, bad, err := b.readSequential(env, b.lay.slotStart[slot], n)
		if err != nil {
			return nil, fmt.Errorf("core: snapshot read: %w", err)
		}
		if bad > 0 {
			// Unreadable pages were zero-filled; the snapshot loader will
			// stop at the hole and the WAL replay covers what it can.
			out.Degraded = append(out.Degraded, fmt.Sprintf("snapshot slot %d: %d unreadable pages zero-filled", slot, bad))
		}
		last := &pages[n-1]
		*last = (*last)[:b.meta.slotBytes[slot]-(n-1)*b.pageSize]
		out.HaveSnapshot = true
		out.Snapshot = pages
	}

	// 3. Sealed segments: exact lengths come from the segment table.
	out.WALGen = b.meta.walRetired + 1
	segOff := b.meta.walHead
	for _, segLen := range b.meta.sealedLens[:b.meta.sealed] {
		if segLen == 0 {
			out.WAL = append(out.WAL, wal.Segment{})
			continue
		}
		segPages := pagesNeeded(segLen, b.pageSize)
		pages, bad, _ := b.readRing(env, make([][]byte, 0, segPages), segOff, segPages, false)
		if bad > 0 {
			out.Degraded = append(out.Degraded, fmt.Sprintf("sealed wal segment %d: %d unreadable pages zero-filled", len(out.WAL), bad))
		}
		last := &pages[segPages-1]
		*last = (*last)[:segLen-(segPages-1)*b.pageSize]
		out.WAL = append(out.WAL, wal.DecodeSegment(pages))
		segOff = (segOff + segPages) % b.lay.walPages
	}

	// 4. Open segment: read forward from its head, one read-ahead window at
	// a time, until the first page that does not read or the region end; the
	// CRC framing then finds the valid prefix. An unwritten page is the
	// normal end of the log; a device read failure also ends the scan, and
	// everything durable before it is the recoverable prefix.
	var pages [][]byte
	remaining := b.lay.walPages - b.sealedPages()
	for off := int64(0); off < remaining; off += recoveryReadAhead {
		var end error
		pages, _, end = b.readRing(env, pages, segOff+off, min(recoveryReadAhead, remaining-off), true)
		if end != nil {
			if nand.IsDeviceError(end) {
				lpa := b.lay.walStart + (segOff+int64(len(pages)))%b.lay.walPages
				out.Degraded = append(out.Degraded, fmt.Sprintf("open wal segment: unreadable page at ring offset %d ends the scan: %v", lpa, end))
			}
			break
		}
	}
	open := wal.DecodeSegment(pages)
	out.WAL = append(out.WAL, open)

	// 5. Restore append state: continue after the last whole record of the
	// open segment, where the same decode stopped. A bad frame past the
	// last whole record is either the expected torn tail of the crashed
	// write (non-zero garbage from a partial page program) or real
	// mid-segment corruption — both record where the durable prefix ends;
	// only a clean zero tail leaves WALTruncatedAt at -1.
	if open.Corrupt {
		out.WALTruncatedAt = open.Prefix
		out.Degraded = append(out.Degraded, fmt.Sprintf("open wal segment: decode stopped on non-zero garbage at byte %d of %d", open.Prefix, open.Len))
	}
	b.walBytes = open.Prefix
	b.walFullPages = open.Prefix / b.pageSize
	if b.walTailSeg != nil {
		b.walTailSeg.Release()
		b.walTailSeg = nil
	}
	if rem := open.Prefix % b.pageSize; rem > 0 {
		// Recovery keeps its own copy of the recovered mid-page tail: the
		// first append after it must hold the same bytes below its offset
		// (the engine's buffer restarts on a copy of them), and its segment
		// then replaces this one.
		b.walTailSeg = b.pool.Get()
		copy(b.walTailSeg.Bytes(), pages[b.walFullPages][:rem])
	}
	b.walTailSynced = 0
	return out, nil
}

// readRing appends n pages of the WAL ring, from ring offset start on, to
// pages as pageSize-byte views (see pageView), with one read per wrap run. A
// run that fails is re-read page by page. A page that still fails (device
// retries are already exhausted below) ends the read when stop is set, and
// end is its error; otherwise it is zero-filled, as an unsynced sealed tail
// reads as zeros, and bad counts the ones lost to real device failures so
// recovery can report the degradation.
func (b *Backend) readRing(env *sim.Env, pages [][]byte, start, n int64, stop bool) (_ [][]byte, bad int64, end error) {
	for _, run := range splitWrap(b.lay.walStart, b.lay.walPages, start, n) {
		data, err := b.walRing.Read(env, run.start, run.n)
		if err == nil {
			for _, pg := range data {
				pages = append(pages, pageView(pg, b.pageSize))
			}
			continue
		}
		for i := int64(0); i < run.n; i++ {
			pg, perr := b.walRing.Read(env, run.start+i, 1)
			if perr == nil {
				pages = append(pages, pageView(pg[0], b.pageSize))
				continue
			}
			if stop {
				return pages, bad, perr
			}
			if nand.IsDeviceError(perr) {
				bad++
			}
			pages = append(pages, pageView(nil, b.pageSize))
		}
	}
	return pages, bad, nil
}

// pageView is a read page as the recovery decoders take it: pageSize bytes,
// so byte offsets stay page-aligned. A full page is its own view — the
// device's bytes, not a copy, kept by nothing once the image or segment it
// belongs to is decoded (see nand.Array.Read for why that is safe). A short
// (tail) page, or a missing one (nil), becomes a zero-padded copy.
func pageView(pg []byte, pageSize int64) []byte {
	if int64(len(pg)) == pageSize {
		return pg
	}
	p := make([]byte, pageSize)
	copy(p, pg)
	return p
}

// readSequential reads n pages from lpa with a double-buffered read-ahead
// pipeline: the next batch is in flight while the current one is consumed.
// This is the §5.3 recovery reader. It returns the pages as views (see
// pageView), never concatenated. A failed batch falls back to single-page
// reads to salvage what it can; pages that still fail (device retries are
// already exhausted below this layer) are zero-filled and counted in bad.
func (b *Backend) readSequential(env *sim.Env, lpa, n int64) (pages [][]byte, bad int64, err error) {
	pages = make([][]byte, 0, n)
	ra := recoveryReadAhead
	issue := func(off int64) *sim.Signal {
		cnt := ra
		if off+cnt > n {
			cnt = n - off
		}
		return b.walRing.Submit(env, &uring.SQE{Op: uring.OpRead, LPA: lpa + off, N: cnt})
	}
	if n == 0 {
		return pages, 0, nil
	}
	pendingSig := issue(0)
	for off := int64(0); off < n; off += ra {
		sig := pendingSig
		if off+ra < n {
			pendingSig = issue(off + ra)
		}
		cqe := sig.Wait(env).(*uring.CQE)
		if cqe.Err != nil {
			cnt := ra
			if off+cnt > n {
				cnt = n - off
			}
			for i := int64(0); i < cnt; i++ {
				pg, perr := b.walRing.Read(env, lpa+off+i, 1)
				if perr != nil {
					bad++
					pages = append(pages, pageView(nil, b.pageSize))
					continue
				}
				pages = append(pages, pageView(pg[0], b.pageSize))
			}
			continue
		}
		for _, pg := range cqe.Data {
			pages = append(pages, pageView(pg, b.pageSize))
		}
	}
	return pages, bad, nil
}
