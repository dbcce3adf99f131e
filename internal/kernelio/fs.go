package kernelio

import (
	"errors"
	"fmt"
	"sort"

	"github.com/slimio/slimio/internal/bufpool"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/ssd"
	"github.com/slimio/slimio/internal/vtrace"
)

// extentPages is the allocation granule: files grow by whole extents of
// device pages, which keeps sequential file data sequential in LBA space.
const extentPages = 64

// metaPages is the LBA region reserved at the front of the device for the
// filesystem journal / checkpoint area, written cyclically at every commit.
const metaPages = 64

// FSStats aggregates filesystem counters.
type FSStats struct {
	Syscalls        int64
	BytesWritten    int64
	BytesRead       int64
	Commits         int64
	WritebackPages  int64
	CacheHits       int64
	CacheMisses     int64
	ThrottleStalls  int64
	ThrottleTime    sim.Duration
	JournalLockWait sim.Duration
}

type cachePage struct {
	seg      *bufpool.Segment // pooled backing store for data
	data     []byte
	dirty    bool
	inflight bool
	// shared is set once seg is the NAND array's too: a writeback has handed
	// out a second reference (the block scheduler's, then the NAND page's),
	// or a read miss filled the page by retaining the segment the array
	// stores (fillPage). From then on the bytes are immutable and a write
	// must take a private copy first. It stays set after the device drops its
	// reference, because a device read may still alias the bytes until the
	// pool's quarantine expires.
	shared bool
}

// free drops the cache's reference to the page's pooled segment (the device
// may hold its own). The page must not be used after.
func (pg *cachePage) free() {
	pg.seg.Release()
	pg.seg = nil
	pg.data = nil
}

// writebackRef returns the page's bytes as a device write payload: one more
// reference to the page's own segment, which the block scheduler takes over
// at Submit and the NAND array retains on program — no writeback copy.
func (pg *cachePage) writebackRef() bufpool.Ref {
	pg.seg.Retain()
	pg.shared = true
	return bufpool.Ref{Seg: pg.seg, B: pg.data}
}

// unshare gives a shared page private bytes again before a write: the page
// moves to a fresh segment holding a copy, and the cache's reference to the
// old one — which the device keeps reading — is dropped.
func (fs *Filesystem) unshare(pg *cachePage) {
	s := fs.pool.Get()
	copy(s.Bytes(), pg.data)
	pg.seg.Release()
	pg.seg, pg.data, pg.shared = s, s.Bytes(), false
}

// File is an open file on the simulated filesystem. Its page cache is a
// dense page table indexed by file page. Dirty pages are never evicted and
// clean pages only via DropCaches, so partial-page rewrites always find their
// page cached — sufficient for the append-dominated access pattern of
// database persistence. Data enters the cache through Write, which copies a
// user buffer, AppendPages, which takes whole pooled pages over without a
// copy, or a read miss, which shares each full pooled page the device stores
// and copies only holes and short or torn images; it leaves through Read as
// views of the cached pages. Not safe for use outside simulation context.
type File struct {
	fs      *Filesystem
	name    string
	size    int64
	extents []int64      // base LPA per extent, in file order
	pages   []*cachePage // cached page per file page index; nil = not cached
	// dirtyIdx preserves dirty-page order for deterministic flushing.
	dirtyIdx  []int64
	inflightN int
	// flushSeq counts writeback completions, so fsync can wait for exactly
	// the in-flight pages that preceded it instead of chasing a file that
	// is continuously re-dirtied.
	flushSeq  int64
	flushDone *sim.Broadcast
	deleted   bool
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Size returns the file length in bytes.
func (f *File) Size() int64 { return f.size }

// Durable reports whether every page written to f has reached the device:
// none is dirty or in writeback, so an fsync would flush nothing.
func (f *File) Durable() bool {
	for _, idx := range f.dirtyIdx {
		if pg := f.page(idx); pg != nil && pg.dirty {
			return false
		}
	}
	return f.inflightN == 0
}

// page returns the cached page at file page idx, or nil.
func (f *File) page(idx int64) *cachePage {
	if idx < int64(len(f.pages)) {
		return f.pages[idx]
	}
	return nil
}

// grow extends the page table to cover file page idx.
func (f *File) grow(idx int64) {
	if n := idx + 1 - int64(len(f.pages)); n > 0 {
		f.pages = append(f.pages, make([]*cachePage, n)...)
	}
}

// dropClean frees every clean, idle cached page from file page idx on and
// trims the table's trailing holes.
func (f *File) dropClean(from int64) {
	for idx := from; idx < int64(len(f.pages)); idx++ {
		if pg := f.pages[idx]; pg != nil && !pg.dirty && !pg.inflight {
			pg.free()
			f.pages[idx] = nil
		}
	}
	n := len(f.pages)
	for n > 0 && f.pages[n-1] == nil {
		n--
	}
	f.pages = f.pages[:n]
}

// freePages drops the cache's reference to every cached page of the file.
func (f *File) freePages() {
	for _, pg := range f.pages {
		if pg != nil {
			pg.free()
		}
	}
	f.pages = nil
}

type dirtyRef struct {
	f   *File
	idx int64
}

// Filesystem simulates a journaling filesystem (EXT4- or F2FS-profiled) over
// a Device, complete with page cache, background writeback, dirty
// throttling, and a journal lock shared by every writer — the shared kernel
// I/O path of the paper's baseline.
type Filesystem struct {
	eng   *sim.Engine
	dev   *ssd.Device
	sched *Scheduler
	costs Costs
	prof  Profile

	journal *sim.Resource
	files   map[string]*File

	freeExtents []int64
	freshCursor int64

	metaCursor int64

	// dirtyQ is the global flush order, consumed from dirtyOff and
	// compacted once the consumed prefix dominates.
	dirtyQ     []dirtyRef
	dirtyOff   int
	dirtyCount int
	wbInflight int
	wbKick     *sim.Broadcast
	drained    *sim.Broadcast

	// group-commit state
	nextTicket int64
	commitSeq  int64
	committing bool
	commitDone *sim.Broadcast
	stats      FSStats

	// placementHint, when set, tags each file's device writes with an FDP
	// placement ID derived from its name — modelling an FDP-aware
	// filesystem (Chen et al., "FDPFS"). Nil leaves all writes on PID 0.
	placementHint func(fileName string) uint32

	// tolerateUnwritten, set on a post-crash remount, makes reads of pages
	// that never reached the device return zeros instead of failing: a file
	// whose metadata was journaled but whose data writeback never ran reads
	// back as holes, exactly like ext4 in data=ordered after power loss.
	tolerateUnwritten bool

	// trace, when non-nil, records syscall-level spans (kernelio/write,
	// kernelio/fsync, kernelio/read) with journal.wait / throttle /
	// commit.wait children, plus kernelio/writeback root trees for the
	// background flusher. Shared with the scheduler via SetTracer.
	trace *vtrace.Tracer

	// pool is the device stack's shared page-buffer pool. Cache pages live in
	// it, and writeback shares them: a submission carries one more reference
	// to the cache page's own segment (cachePage.writebackRef), which the
	// block scheduler releases once the device has consumed the request and
	// retained what it stores.
	pool *bufpool.Pool

	// commitRec is the reusable journal-commit record payload, submitted to
	// the device as a borrowed (non-pooled) reference at every commit.
	commitRec []byte
}

// newCachePage hands out a pooled page holding src at byte offset off and
// zeros everywhere else, and reports how many bytes of src fitted. Zeroing
// what src does not cover is load-bearing: the pool recycles segments, and a
// stale tail persisted past the file's logical end would read back after a
// crash as mid-page garbage — which WAL decoding classifies as corruption —
// instead of the clean all-zero tail an unwritten page is expected to show.
// A full-page src leaves nothing to clear.
func (fs *Filesystem) newCachePage(off int64, src []byte) (*cachePage, int) {
	s := fs.pool.Get()
	b := s.Bytes()
	clear(b[:off])
	n := copy(b[off:], src)
	clear(b[off+int64(n):])
	return &cachePage{seg: s, data: b}, n
}

// NewFilesystem mounts a fresh filesystem on dev, using the given scheduler
// mode. The first metaPages LPAs hold the journal; the rest is data space.
func NewFilesystem(eng *sim.Engine, dev *ssd.Device, prof Profile, mode SchedMode, costs Costs) *Filesystem {
	fs := &Filesystem{
		eng:         eng,
		dev:         dev,
		sched:       NewScheduler(eng, dev, mode, costs),
		costs:       costs,
		prof:        prof,
		journal:     sim.NewResource(eng, 1),
		files:       make(map[string]*File),
		freshCursor: metaPages,
		wbKick:      sim.NewBroadcast(eng),
		drained:     sim.NewBroadcast(eng),
		commitDone:  sim.NewBroadcast(eng),
		nextTicket:  1, // commitSeq starts at 0, so the first fsync commits
		pool:        dev.FTL().Array().Pool(),
		commitRec:   commitRecord(dev.PageSize()),
	}
	eng.SpawnDaemon("writeback:"+prof.Name, fs.writeback)
	return fs
}

// Device exposes the underlying device (for stats).
func (fs *Filesystem) Device() *ssd.Device { return fs.dev }

// SetTracer installs a tracer on the filesystem and its block-layer
// scheduler. Nil disables tracing.
func (fs *Filesystem) SetTracer(t *vtrace.Tracer) {
	fs.trace = t
	fs.sched.SetTracer(t)
}

// Tracer returns the installed tracer (nil when tracing is off), letting
// layers above the filesystem parent their spans on the same tracer.
func (fs *Filesystem) Tracer() *vtrace.Tracer { return fs.trace }

// SetPlacementHint installs a per-file placement-ID function, making this an
// FDP-aware filesystem (used by the FDP-only ablation). Pass nil to disable.
func (fs *Filesystem) SetPlacementHint(fn func(fileName string) uint32) { fs.placementHint = fn }

// pidOf resolves a file's placement ID.
func (fs *Filesystem) pidOf(name string) uint32 {
	if fs.placementHint == nil {
		return 0
	}
	return fs.placementHint(name)
}

// Scheduler exposes the block-layer scheduler (for stats).
func (fs *Filesystem) Scheduler() *Scheduler { return fs.sched }

// Profile reports the mounted filesystem profile.
func (fs *Filesystem) Profile() Profile { return fs.prof }

// Stats returns cumulative filesystem counters.
func (fs *Filesystem) Stats() FSStats { return fs.stats }

// DirtyPages reports pages awaiting writeback.
func (fs *Filesystem) DirtyPages() int { return fs.dirtyCount }

// WritebackInflight reports writeback commands submitted to the block
// layer and not yet reaped — the writeback queue depth the telemetry plane
// samples.
func (fs *Filesystem) WritebackInflight() int { return fs.wbInflight }

func (fs *Filesystem) pageSize() int64 { return int64(fs.dev.PageSize()) }

// ErrNoSpace is write(2)'s ENOSPC: the filesystem has no free extent left.
var ErrNoSpace = errors.New("kernelio: filesystem full (ENOSPC)")

// allocExtent hands out one extent, reusing freed ones first.
func (fs *Filesystem) allocExtent() (int64, error) {
	if n := len(fs.freeExtents); n > 0 {
		base := fs.freeExtents[n-1]
		fs.freeExtents = fs.freeExtents[:n-1]
		return base, nil
	}
	if fs.freshCursor+extentPages > fs.dev.Capacity() {
		return 0, ErrNoSpace
	}
	base := fs.freshCursor
	fs.freshCursor += extentPages
	return base, nil
}

// Create makes a new empty file. Creating an existing name is an error.
func (fs *Filesystem) Create(name string) (*File, error) {
	if _, ok := fs.files[name]; ok {
		return nil, fmt.Errorf("kernelio: file %q exists", name)
	}
	f := &File{
		fs:        fs,
		name:      name,
		flushDone: sim.NewBroadcast(fs.eng),
	}
	fs.files[name] = f
	return f, nil
}

// Open returns an existing file.
func (fs *Filesystem) Open(name string) (*File, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("kernelio: file %q does not exist", name)
	}
	return f, nil
}

// Exists reports whether name exists.
func (fs *Filesystem) Exists(name string) bool {
	_, ok := fs.files[name]
	return ok
}

// CrashMounted reports whether this filesystem came from Remount — i.e. it
// is reading post-crash device state rather than its own live cache.
func (fs *Filesystem) CrashMounted() bool { return fs.tolerateUnwritten }

// Names lists every live file, sorted (directory scan at recovery).
func (fs *Filesystem) Names() []string {
	out := make([]string, 0, len(fs.files))
	for name := range fs.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Remount builds a fresh Filesystem over the same device, modelling a crash
// and reboot: the file table (names, sizes, extent maps) survives because
// the simulated filesystem journals its metadata, the page cache starts
// cold, and dirty pages that never reached writeback are simply gone. Pages
// whose device LPA was never programmed read back as zeros on the new mount
// (tolerateUnwritten), which a WAL decoder treats as a clean unwritten tail.
// The old Filesystem must not be used afterwards.
func (fs *Filesystem) Remount(eng *sim.Engine) *Filesystem {
	nfs := NewFilesystem(eng, fs.dev, fs.prof, fs.sched.mode, fs.costs)
	nfs.freeExtents = append([]int64(nil), fs.freeExtents...)
	nfs.freshCursor = fs.freshCursor
	nfs.metaCursor = fs.metaCursor
	nfs.placementHint = fs.placementHint
	nfs.tolerateUnwritten = true
	nfs.SetTracer(fs.trace)
	for name, f := range fs.files {
		if f.deleted {
			continue
		}
		nfs.files[name] = &File{
			fs:        nfs,
			name:      name,
			size:      f.size,
			extents:   append([]int64(nil), f.extents...),
			flushDone: sim.NewBroadcast(eng),
		}
	}
	return nfs
}

// lpaOf maps a file page index to its device LPA, growing the file as
// needed.
func (f *File) lpaOf(idx int64) (int64, error) {
	for int64(len(f.extents))*extentPages <= idx {
		base, err := f.fs.allocExtent()
		if err != nil {
			return 0, err
		}
		f.extents = append(f.extents, base)
	}
	return f.extents[idx/extentPages] + idx%extentPages, nil
}

// Write implements the write(2) path: syscall entry, journal handle under
// the shared lock, user→kernel copy into the page cache, dirty accounting,
// and dirty-ratio throttling. It returns when the data is in the page cache
// (durability requires Fsync).
func (f *File) Write(env *sim.Env, off int64, data []byte) error {
	return f.write(env, off, iovec{buf: data})
}

// Append writes data at the current end of file.
func (f *File) Append(env *sim.Env, data []byte) error {
	return f.Write(env, f.size, data)
}

// AppendPages is write(2) at the end of file from a run of pooled page
// segments, the wal.Chain shape: the payload is segs[0] from byte head on,
// every middle segment whole, and the last segment up to byte tail. It bills
// virtual time exactly as Write of the flattened payload would.
//
// The file takes over one caller reference per segment and sets its slot in
// segs to nil as it does. A segment whose payload is a whole page landing at
// a page-aligned file offset with no page cached there becomes that cache
// page: the reference moves, no byte is copied. Every other span is copied
// into a private, zero-padded cache page (as Write does) and its reference
// released. An error leaves every reference with the caller. A power cut
// frozen inside the call leaves each reference in exactly one place: its
// still non-nil slot in segs, or the page cache, which Close frees.
//
// Adopted bytes must not change afterwards: a caller passes only drained
// pages nobody writes again. A segment the producer keeps filling always
// ends short of a page, so it is copied.
func (f *File) AppendPages(env *sim.Env, segs []*bufpool.Segment, head, tail int) error {
	return f.write(env, f.size, iovec{segs: segs, head: head, tail: tail})
}

// iovec is write(2)'s source: one user buffer, or, when segs is non-nil,
// the payload of a run of pooled page segments (head is the start offset in
// segs[0], tail the used length of the last segment).
type iovec struct {
	buf        []byte
	segs       []*bufpool.Segment
	head, tail int
}

// count is the number of spans.
func (v *iovec) count() int {
	if v.segs == nil {
		return 1
	}
	return len(v.segs)
}

// span returns span i's bytes.
func (v *iovec) span(i int) []byte {
	if v.segs == nil {
		return v.buf
	}
	b := v.segs[i].Bytes()
	lo, hi := 0, len(b)
	if i == 0 {
		lo = v.head
	}
	if i == len(v.segs)-1 {
		hi = v.tail
	}
	return b[lo:hi]
}

// size is the payload length in bytes.
func (v *iovec) size() int {
	n := 0
	for i := 0; i < v.count(); i++ {
		n += len(v.span(i))
	}
	return n
}

// write is the one write(2) path behind Write and AppendPages.
func (f *File) write(env *sim.Env, off int64, src iovec) error {
	if f.deleted {
		return fmt.Errorf("kernelio: write to deleted file %q", f.name)
	}
	if off < 0 {
		return fmt.Errorf("kernelio: negative offset %d", off)
	}
	fs := f.fs
	size := int64(src.size())
	fs.stats.Syscalls++
	fs.stats.BytesWritten += size
	tr := fs.trace
	span := tr.Begin("kernelio", "write", tr.Scope(), env.Now())
	tr.SetArg(span, size)
	defer func() { tr.End(span, env.Now()) }()
	env.Work(TagSyscall, fs.costs.SyscallEntry)

	// The filesystem write lock (jbd2 handle / f2fs curseg) is held across
	// the whole buffered write — the §3.1.2 scalability bottleneck when two
	// processes write at once. A contended acquisition additionally burns
	// CPU in the optimistic-spin slow path, which is what inflates the
	// snapshot process's in-filesystem CPU share under concurrent WAL
	// traffic (Table 2).
	t0 := env.Now()
	fs.journal.Acquire(env)
	waited := env.Now().Sub(t0)
	fs.stats.JournalLockWait += waited
	if waited > 0 {
		tr.Emit("kernelio", "journal.wait", span, t0, env.Now(), 0)
	}
	if spin := waited; spin > 0 {
		if spin > 20*sim.Microsecond {
			spin = 20 * sim.Microsecond
		}
		env.Work(TagFS, spin)
	}
	env.Work(TagFS, fs.prof.HandleHold)

	// Under dirty-page pressure the write path slows down: every page
	// dirtied runs balance_dirty_pages, allocator slow paths, and contended
	// tree updates. Model it as a cost multiplier that grows with the
	// dirty ratio.
	press := float64(fs.dirtyCount) / float64(fs.costs.DirtyThrottlePages)
	if press > 1 {
		press = 1
	}
	mult := 1 + 0.6*press

	// Copy user buffer into the cache (under the write lock).
	copyCost := sim.DurationForBytes(size, fs.costs.CopyBandwidth)
	env.Work(TagCopy, sim.Duration(float64(copyCost)*mult))

	ps := fs.pageSize()
	firstIdx := off / ps
	lastIdx := (off + size - 1) / ps
	if size == 0 {
		lastIdx = firstIdx - 1
	}
	nPages := lastIdx - firstIdx + 1
	fsCost := fs.prof.PerOpCPU + fs.prof.PerPageCPU*sim.Duration(nPages)
	env.Work(TagFS, sim.Duration(float64(fsCost)*mult))

	// Reserve all blocks up front so ENOSPC is atomic: a failed write must
	// leave no partial data behind (callers retry the whole buffer).
	if lastIdx >= firstIdx {
		if _, err := f.lpaOf(lastIdx); err != nil {
			fs.journal.Release()
			return err
		}
		f.grow(lastIdx)
	}
	fs.journal.Release()

	pos := off
	for i := 0; i < src.count(); i++ {
		b := src.span(i)
		switch {
		case src.segs == nil:
			f.copyIn(pos, b)
		case len(b) == int(ps) && pos%ps == 0 && f.pages[pos/ps] == nil:
			// A whole drained page: the caller's reference becomes the cache's.
			f.pages[pos/ps] = &cachePage{seg: src.segs[i], data: b}
			f.markDirty(pos / ps)
			src.segs[i] = nil
		default:
			f.copyIn(pos, b)
			src.segs[i].Release()
			src.segs[i] = nil
		}
		pos += int64(len(b))
	}
	if off+size > f.size {
		f.size = off + size
	}

	if fs.dirtyCount >= fs.costs.DirtyBackgroundPages {
		fs.wbKick.Notify()
	}
	// Dirty throttling: block the writer until writeback drains. This is
	// what punishes the snapshot process's high dirtying rate (§3.1.3).
	for fs.dirtyCount >= fs.costs.DirtyThrottlePages {
		fs.stats.ThrottleStalls++
		t := env.Now()
		fs.wbKick.Notify()
		fs.drained.Wait(env)
		fs.stats.ThrottleTime += env.Now().Sub(t)
		tr.Emit("kernelio", "throttle", span, t, env.Now(), int64(fs.dirtyCount))
	}
	return nil
}

// copyIn is the user→cache copy of data to file offset off, whose pages are
// reserved: an uncached page becomes a private zero-padded one, a cached page
// shared with the device moves to private bytes before it is written.
func (f *File) copyIn(off int64, data []byte) {
	fs := f.fs
	ps := fs.pageSize()
	pos := 0
	for idx := off / ps; pos < len(data); idx++ {
		pageOff := off + int64(pos) - idx*ps
		pg := f.pages[idx]
		var n int
		if pg == nil {
			pg, n = fs.newCachePage(pageOff, data[pos:])
			f.pages[idx] = pg
		} else {
			if pg.shared {
				fs.unshare(pg)
			}
			n = copy(pg.data[pageOff:], data[pos:])
		}
		pos += n
		f.markDirty(idx)
	}
}

// markDirty queues cached page idx for writeback unless it already waits.
func (f *File) markDirty(idx int64) {
	if pg := f.pages[idx]; !pg.dirty {
		pg.dirty = true
		f.dirtyIdx = append(f.dirtyIdx, idx)
		f.fs.dirtyQ = append(f.fs.dirtyQ, dirtyRef{f, idx})
		f.fs.dirtyCount++
	}
}

// collectDirty pulls up to max dirty pages of this file (in dirty order),
// marking them in flight, and returns the device writes plus the cache pages
// to un-flag once the device completes.
func (f *File) collectDirty(max int) ([]ssd.PageWrite, []*cachePage) {
	var out []ssd.PageWrite
	var flushed []*cachePage
	keep := f.dirtyIdx[:0]
	for i, idx := range f.dirtyIdx {
		if len(out) >= max {
			keep = append(keep, f.dirtyIdx[i])
			continue
		}
		pg := f.page(idx)
		if pg == nil || !pg.dirty {
			continue
		}
		lpa, err := f.lpaOf(idx)
		if err != nil {
			continue // extent was already allocated at Write time
		}
		pg.dirty = false
		pg.inflight = true
		f.inflightN++
		f.fs.dirtyCount--
		out = append(out, ssd.PageWrite{LPA: lpa, Data: pg.writebackRef(), PID: f.fs.pidOf(f.name)})
		flushed = append(flushed, pg)
	}
	f.dirtyIdx = keep
	return out, flushed
}

// Fsync implements fsync(2): flush this file's dirty pages with synchronous
// priority, wait for any writeback already in flight, then run (or join) a
// journal commit. Group commit semantics: concurrent fsyncs share one
// commit, as jbd2 does.
func (f *File) Fsync(env *sim.Env) error {
	if f.deleted {
		return fmt.Errorf("kernelio: fsync of deleted file %q", f.name)
	}
	fs := f.fs
	fs.stats.Syscalls++
	tr := fs.trace
	span := tr.Begin("kernelio", "fsync", tr.Scope(), env.Now())
	defer func() { tr.End(span, env.Now()) }()
	env.Work(TagSyscall, fs.costs.SyscallEntry)
	ticket := fs.nextTicket
	fs.nextTicket++

	// Flush our dirty pages (sync priority, batched).
	for {
		batch, flushed := f.collectDirty(fs.costs.WritebackBatch)
		if len(batch) == 0 {
			break
		}
		tr.SetScope(span)
		req := fs.sched.Submit(batch, true)
		tr.SetScope(0)
		err, _ := req.Done.Wait(env).(error)
		if err != nil {
			return err
		}
		for _, pg := range flushed {
			pg.inflight = false
		}
		f.clearInflight(len(batch))
		fs.drained.Notify()
	}
	// Wait out pages the background flusher grabbed before this fsync —
	// and only those; pages dirtied and grabbed later belong to a future
	// sync.
	target := f.flushSeq + int64(f.inflightN)
	for f.flushSeq < target {
		f.flushDone.Wait(env)
	}

	// Journal commit with group semantics.
	for fs.commitSeq < ticket {
		if fs.committing {
			t := env.Now()
			fs.commitDone.Wait(env)
			tr.Emit("kernelio", "commit.wait", span, t, env.Now(), 0)
			continue
		}
		fs.committing = true
		covers := fs.nextTicket - 1
		t0 := env.Now()
		fs.journal.Acquire(env)
		fs.stats.JournalLockWait += env.Now().Sub(t0)
		commitSpan := tr.Begin("kernelio", "commit", span, env.Now())
		env.Work(TagFS, fs.prof.CommitHold)
		var metas []ssd.PageWrite
		for i := 0; i < fs.prof.CommitPages; i++ {
			lpa := fs.metaCursor % metaPages
			fs.metaCursor++
			metas = append(metas, ssd.PageWrite{LPA: lpa, Data: bufpool.Borrowed(fs.commitRec)})
		}
		tr.SetScope(commitSpan)
		req := fs.sched.Submit(metas, true)
		tr.SetScope(0)
		err, _ := req.Done.Wait(env).(error)
		tr.End(commitSpan, env.Now())
		fs.journal.Release()
		fs.committing = false
		fs.commitSeq = covers
		fs.stats.Commits++
		fs.commitDone.Notify()
		if err != nil {
			return err
		}
	}
	return nil
}

func commitRecord(pageSize int) []byte {
	rec := make([]byte, 64)
	copy(rec, "JOURNAL-COMMIT")
	if pageSize < len(rec) {
		rec = rec[:pageSize]
	}
	return rec
}

func (f *File) clearInflight(n int) {
	f.inflightN -= n
	if f.inflightN < 0 {
		f.inflightN = 0
	}
	f.flushSeq += int64(n)
	f.flushDone.Notify()
}

// Read implements the read(2) path: page-cache hits cost only the copy;
// misses read through to the device with sequential readahead. It appends
// [off, off+n), cut at EOF, to dst as one view per cached page, valid until
// the file is written, truncated or deleted, or its cache is dropped; the copy
// to a user buffer is billed all the same. On error dst is returned as is.
func (f *File) Read(env *sim.Env, dst [][]byte, off int64, n int) ([][]byte, error) {
	if f.deleted {
		return dst, fmt.Errorf("kernelio: read of deleted file %q", f.name)
	}
	if off < 0 {
		return dst, fmt.Errorf("kernelio: negative offset %d", off)
	}
	fs := f.fs
	fs.stats.Syscalls++
	tr := fs.trace
	span := tr.Begin("kernelio", "read", tr.Scope(), env.Now())
	tr.SetArg(span, int64(n))
	defer func() { tr.End(span, env.Now()) }()
	env.Work(TagSyscall, fs.costs.SyscallEntry)
	if off >= f.size {
		return dst, nil // EOF
	}
	if int64(n) > f.size-off {
		n = int(f.size - off)
	}
	ps := fs.pageSize()
	firstIdx := off / ps
	lastIdx := (off + int64(n) - 1) / ps

	for idx := firstIdx; idx <= lastIdx; idx++ {
		if f.page(idx) != nil {
			fs.stats.CacheHits++
			continue
		}
		fs.stats.CacheMisses++
		tr.SetScope(span)
		err := f.fillFrom(env, idx)
		tr.SetScope(0)
		if err != nil {
			return dst, err
		}
	}

	for idx := firstIdx; idx <= lastIdx; idx++ {
		lo, hi := max(off-idx*ps, 0), min(off+int64(n)-idx*ps, ps)
		dst = append(dst, f.pages[idx].data[lo:hi:hi])
	}
	env.Work(TagCopy, sim.DurationForBytes(int64(n), fs.costs.CopyBandwidth))
	fs.stats.BytesRead += int64(n)
	return dst, nil
}

// fillFrom reads page idx plus a readahead window of LPA-contiguous
// following pages into the cache, blocking until the device completes.
func (f *File) fillFrom(env *sim.Env, idx int64) error {
	fs := f.fs
	ps := fs.pageSize()
	lastFileIdx := (f.size - 1) / ps
	run := int64(1)
	maxRun := int64(fs.costs.ReadAheadPages)
	for run < maxRun && idx+run <= lastFileIdx {
		if f.page(idx+run) != nil {
			break // already cached; stop the run
		}
		if (idx+run)%extentPages == 0 {
			break // extent boundary: LPAs stop being contiguous
		}
		run++
	}
	lpa, err := f.lpaOf(idx)
	if err != nil {
		return err
	}
	f.grow(idx + run - 1)
	if fs.tolerateUnwritten {
		// Post-crash mount: any page in the run may be a hole (allocated,
		// never flushed). Read page by page, substituting zeros for
		// unmapped LPAs without touching the device.
		for i := int64(0); i < run; i++ {
			// Read before taking a pooled page: the device wait can freeze
			// this process at a power cut, and a page held only by this stack
			// frame would leak.
			var data [][]byte
			if fs.dev.Mapped(lpa + i) {
				var err error
				data, err = fs.dev.Read(env, lpa+i, 1)
				if err != nil {
					return err
				}
			}
			var stored []byte // a hole reads as zeros
			if len(data) > 0 {
				stored = data[0]
			}
			f.pages[idx+i] = fs.fillPage(lpa+i, stored)
		}
		return nil
	}
	pages, err := fs.dev.Read(env, lpa, run)
	if err != nil {
		return err
	}
	for i := int64(0); i < run; i++ {
		f.pages[idx+i] = fs.fillPage(lpa+i, pages[i])
	}
	return nil
}

// fillPage makes the cache page for a completed device read of lpa that
// returned data (nil for a hole). When lpa still maps to a full pooled page
// whose bytes are data, the cache shares that page: it retains the NAND
// array's segment and marks it shared, so a later write moves to a private
// copy first (unshare) and the device's bytes never change. Anything else —
// a hole, a short or torn image, a view of a page lpa no longer maps to — is
// copied into a private zero-padded page, as nand.Program copies borrowed
// bytes. Called only after the device wait, so a power cut frozen in the
// read strands no reference.
func (fs *Filesystem) fillPage(lpa int64, data []byte) *cachePage {
	if ref := fs.dev.StoredRef(lpa); ref.Seg != nil && len(data) == int(fs.pageSize()) &&
		len(ref.B) == len(data) && &ref.B[0] == &data[0] {
		ref.Seg.Retain()
		return &cachePage{seg: ref.Seg, data: ref.B, shared: true}
	}
	pg, _ := fs.newCachePage(0, data)
	return pg
}

// Truncate shrinks the file to size bytes, dropping clean cached pages past
// the new end (extents stay allocated, as on a real filesystem until hole
// punching). Recovery uses it to cut a torn WAL tail before appends resume,
// the way Redis truncates a partial AOF at startup; at that point the cache
// holds no dirty pages, so only clean pages need dropping.
func (f *File) Truncate(size int64) {
	if size < 0 || size >= f.size {
		return
	}
	f.size = size
	ps := f.fs.pageSize()
	f.dropClean((size + ps - 1) / ps)
}

// Delete drops the file: cached dirty data is discarded (deleting an
// un-synced file loses it, as on a real OS), in-flight writeback is awaited,
// and the file's extents are TRIMmed so the device learns the data is dead.
func (fs *Filesystem) Delete(env *sim.Env, name string) error {
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("kernelio: file %q does not exist", name)
	}
	fs.stats.Syscalls++
	env.Work(TagSyscall, fs.costs.SyscallEntry)
	// Discard dirty pages.
	for _, idx := range f.dirtyIdx {
		if pg := f.page(idx); pg != nil && pg.dirty {
			pg.dirty = false
			fs.dirtyCount--
		}
	}
	f.dirtyIdx = nil
	fs.drained.Notify()
	// Wait only for writeback already in flight at entry (the file is hot;
	// new flushes of other files keep the flusher busy indefinitely).
	target := f.flushSeq + int64(f.inflightN)
	for f.flushSeq < target {
		f.flushDone.Wait(env)
	}
	f.deleted = true
	delete(fs.files, name)
	for _, base := range f.extents {
		if err := fs.dev.Deallocate(base, extentPages); err != nil {
			return err
		}
		fs.freeExtents = append(fs.freeExtents, base)
	}
	f.extents = nil
	f.freePages()
	// Metadata update for the unlink.
	fs.journal.Acquire(env)
	env.Work(TagFS, fs.prof.HandleHold)
	fs.journal.Release()
	return nil
}

// DropCaches evicts every clean page from every file, simulating
// `echo 3 > /proc/sys/vm/drop_caches` before a cold-cache recovery run.
func (fs *Filesystem) DropCaches() {
	for _, f := range fs.files {
		f.dropClean(0)
	}
}

// Close releases every pooled buffer the filesystem still holds — cached
// pages, and write payloads staged at (or frozen inside) the block
// scheduler. Teardown only, e.g. before a pool-quiescence check; the
// filesystem must not be used afterwards.
func (fs *Filesystem) Close() {
	fs.sched.DropPending()
	for _, f := range fs.files {
		f.freePages()
		f.dirtyIdx = nil
	}
	fs.dirtyQ, fs.dirtyOff = nil, 0
	fs.dirtyCount = 0
}

// wbInflight is one writeback command awaiting device completion. The
// flusher keeps a ring of WritebackQD of them and refills a slot's slices for
// its next batch once the slot's command has been reaped.
type wbInflight struct {
	req     *Request
	batch   []ssd.PageWrite
	touched []*File
	flushed []*cachePage
	span    vtrace.SpanID
}

// popDirty takes the oldest entry off the dirty queue, compacting the
// consumed prefix once it dominates.
func (fs *Filesystem) popDirty() dirtyRef {
	ref := fs.dirtyQ[fs.dirtyOff]
	fs.dirtyQ[fs.dirtyOff] = dirtyRef{}
	fs.dirtyOff++
	if fs.dirtyOff > len(fs.dirtyQ)/2 {
		n := copy(fs.dirtyQ, fs.dirtyQ[fs.dirtyOff:])
		clear(fs.dirtyQ[n:])
		fs.dirtyQ = fs.dirtyQ[:n]
		fs.dirtyOff = 0
	}
	return ref
}

// writeback is the background flusher daemon (one per filesystem): it drains
// the global dirty queue in batches with async priority, keeping up to
// WritebackQD commands in flight — the pipelining that lets the page cache
// absorb device hiccups which stall direct writers.
func (fs *Filesystem) writeback(env *sim.Env) {
	qd := max(fs.costs.WritebackQD, 1)
	ring := make([]wbInflight, qd)
	head, n := 0, 0 // oldest in-flight slot, commands in flight
	for {
		// Fill the pipeline.
		for n < qd && fs.dirtyOff < len(fs.dirtyQ) {
			w := &ring[(head+n)%qd]
			w.batch, w.touched, w.flushed = w.batch[:0], w.touched[:0], w.flushed[:0]
			for fs.dirtyOff < len(fs.dirtyQ) && len(w.batch) < fs.costs.WritebackBatch {
				ref := fs.popDirty()
				if ref.f.deleted {
					continue
				}
				pg := ref.f.page(ref.idx)
				if pg == nil || !pg.dirty {
					continue // already flushed by fsync or deleted
				}
				lpa, err := ref.f.lpaOf(ref.idx)
				if err != nil {
					continue
				}
				pg.dirty = false
				pg.inflight = true
				ref.f.inflightN++
				fs.dirtyCount--
				// Remove from the file's own dirty list lazily: collectDirty
				// skips non-dirty entries.
				w.batch = append(w.batch, ssd.PageWrite{LPA: lpa, Data: pg.writebackRef(), PID: fs.pidOf(ref.f.name)})
				w.touched = append(w.touched, ref.f)
				w.flushed = append(w.flushed, pg)
			}
			if len(w.batch) == 0 {
				break
			}
			tr := fs.trace
			w.span = tr.Begin("kernelio", "writeback", 0, env.Now())
			tr.SetArg(w.span, int64(len(w.batch)))
			tr.SetScope(w.span)
			w.req = fs.sched.Submit(w.batch, false)
			tr.SetScope(0)
			n++
			fs.wbInflight = n
		}
		if n == 0 {
			fs.wbKick.Wait(env)
			continue
		}
		// Reap the oldest command.
		w := &ring[head]
		head = (head + 1) % qd
		n--
		fs.wbInflight = n
		w.req.Done.Wait(env)
		fs.trace.End(w.span, env.Now())
		fs.stats.WritebackPages += int64(len(w.req.Pages))
		for i, f := range w.touched {
			w.flushed[i].inflight = false
			f.clearInflight(1)
		}
		w.req = nil
		fs.drained.Notify()
	}
}

// Rename atomically renames a file, replacing any existing target (the
// rename(2) semantics Redis relies on to publish "dump.rdb.tmp" as the live
// snapshot).
func (fs *Filesystem) Rename(env *sim.Env, oldName, newName string) error {
	f, ok := fs.files[oldName]
	if !ok {
		return fmt.Errorf("kernelio: rename: %q does not exist", oldName)
	}
	fs.stats.Syscalls++
	env.Work(TagSyscall, fs.costs.SyscallEntry)
	if _, ok := fs.files[newName]; ok {
		if err := fs.Delete(env, newName); err != nil {
			return err
		}
	}
	fs.journal.Acquire(env)
	env.Work(TagFS, fs.prof.HandleHold)
	fs.journal.Release()
	delete(fs.files, oldName)
	f.name = newName
	fs.files[newName] = f
	return nil
}
