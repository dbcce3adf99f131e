// Package nand models a NAND flash array with FEMU-compatible geometry and
// timing: channels × dies, blocks of sequentially-programmed pages, and the
// three basic operations (page read, page program, block erase).
//
// The model is functional as well as temporal: programmed pages hold real
// bytes, which the FTL layers above physically move during garbage
// collection, so data-integrity properties can be tested end to end.
//
// Timing uses sim.Timeline horizons per die and per channel rather than
// simulation processes, which keeps the event count per host command at one
// regardless of how many flash operations it fans out to. State mutations
// take effect immediately; the returned completion time tells the caller
// when the operation is durable/serviceable in virtual time.
package nand

import (
	"errors"
	"fmt"

	"github.com/slimio/slimio/internal/bufpool"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/vtrace"
)

// quarantineSlack pads the read horizon when a discarded or erased page's
// segment is released back to the buffer pool. Read results are handed to
// consumers as aliases at the read's completion time; every consumer in this
// repository that could race a discard of the page copies the bytes out
// within the same-timestamp event cascade plus sub-microsecond ring/handler
// work (≤ ~300 ns), so a microsecond-scale pad is far more than enough. The
// two that keep aliases longer, SlimIO's WAL and snapshot recovery, read
// pages that nothing discards meanwhile, so no pad has to cover them; see
// Read.
const quarantineSlack = 10 * sim.Microsecond

// Status is an NVMe-style command status code, surfaced alongside Go errors
// so the layers above can classify failures the way a real driver would.
type Status uint16

const (
	// StatusOK is command success.
	StatusOK Status = 0
	// StatusInternal (NVMe 0x06) covers model errors with no media cause.
	StatusInternal Status = 0x06
	// StatusWriteFault (NVMe 0x280): the die failed to program the page.
	// The page is unreadable and the FTL must retire the block.
	StatusWriteFault Status = 0x280
	// StatusUnrecoveredRead (NVMe 0x281): the read failed. Injected read
	// faults are transient — a retry may succeed.
	StatusUnrecoveredRead Status = 0x281
	// StatusInterruptedWrite is a model-specific code for a program cut by
	// power loss: the page holds a torn (partially programmed) image.
	StatusInterruptedWrite Status = 0x3F0
	// StatusEraseFault is a model-specific code for a failed block erase;
	// the block keeps its pre-erase contents and must be retired.
	StatusEraseFault Status = 0x3F1
)

// DeviceError is a failed NAND operation with its NVMe-style status.
type DeviceError struct {
	Status    Status
	Transient bool // a retry may succeed (read disturb, not worn media)
	Op        string
	PPA       PPA
}

func (e *DeviceError) Error() string {
	return fmt.Sprintf("nand: %s of PPA %d failed (status 0x%x, transient=%v)", e.Op, e.PPA, uint16(e.Status), e.Transient)
}

// StatusOf extracts the NVMe-style status from err (StatusOK for nil,
// StatusInternal for non-device errors).
func StatusOf(err error) Status {
	if err == nil {
		return StatusOK
	}
	var de *DeviceError
	if errors.As(err, &de) {
		return de.Status
	}
	return StatusInternal
}

// IsDeviceError reports whether err carries an NVMe-style device status (as
// opposed to a model/usage error such as an out-of-range address).
func IsDeviceError(err error) bool {
	var de *DeviceError
	return errors.As(err, &de)
}

// IsTransient reports whether err is a device error a retry may clear.
func IsTransient(err error) bool {
	var de *DeviceError
	return errors.As(err, &de) && de.Transient
}

// IsProgramFail reports a permanent program failure (block must retire).
func IsProgramFail(err error) bool { return StatusOf(err) == StatusWriteFault }

// IsTornWrite reports a program interrupted by power loss.
func IsTornWrite(err error) bool { return StatusOf(err) == StatusInterruptedWrite }

// IsEraseFault reports a failed block erase.
func IsEraseFault(err error) bool { return StatusOf(err) == StatusEraseFault }

// ProgramOutcome classifies what a fault hook did to a page program.
type ProgramOutcome int

const (
	// ProgramOK leaves the program untouched.
	ProgramOK ProgramOutcome = iota
	// ProgramFail is a permanent media failure: the page stores nothing and
	// the operation returns StatusWriteFault.
	ProgramFail
	// ProgramTorn stores the decision's Torn bytes instead of the payload
	// (a partial program at power loss) and returns StatusInterruptedWrite.
	ProgramTorn
)

// ProgramDecision is a fault hook's verdict on one page program.
type ProgramDecision struct {
	Outcome ProgramOutcome
	// Torn is the partially-programmed image stored when Outcome is
	// ProgramTorn. The array takes ownership of the slice.
	Torn []byte
}

// FaultHook is consulted on every array operation when installed. The zero
// state (no hook) is a strict no-op: no extra branches beyond one nil check,
// so fault-free runs stay bit-identical with or without the fault subsystem
// compiled in. Implementations live in internal/fault.
type FaultHook interface {
	// ReadFault returns a non-nil error to fail this read. The array still
	// reserves die and channel time, so the returned completion time gives
	// retry backoff a meaningful base.
	ReadFault(now sim.Time, ppa PPA) error
	// ProgramFault classifies a program spanning [now, done).
	ProgramFault(now, done sim.Time, ppa PPA, data []byte) ProgramDecision
	// EraseFault returns a non-nil error to fail this erase; the block then
	// keeps its pre-erase contents.
	EraseFault(now sim.Time, die, block int) error
}

// Geometry describes the physical layout of the array. The defaults mirror
// the paper's FEMU configuration (8 channels, 8 dies/channel, 4 KiB pages).
type Geometry struct {
	Channels       int
	DiesPerChannel int
	BlocksPerDie   int
	PagesPerBlock  int
	PageSize       int // bytes
}

// DefaultGeometry returns the paper's FEMU geometry scaled to a small device
// (default ~2 GiB) so the full experiment suite runs in seconds. BlocksPerDie
// is derived from totalBytes; pass 0 for the 2 GiB default.
func DefaultGeometry(totalBytes int64) Geometry {
	if totalBytes <= 0 {
		totalBytes = 2 << 30
	}
	g := Geometry{
		Channels:       8,
		DiesPerChannel: 8,
		PagesPerBlock:  256, // 1 MiB blocks at 4 KiB pages
		PageSize:       4096,
	}
	dieBytes := totalBytes / int64(g.Channels*g.DiesPerChannel)
	// Keep at least 16 blocks per die so FTL over-provisioning and GC
	// headroom stay a small fraction of the device even at tiny scales:
	// shrink the block size rather than the block count.
	for g.PagesPerBlock > 16 && dieBytes/int64(g.PagesPerBlock*g.PageSize) < 16 {
		g.PagesPerBlock /= 2
	}
	g.BlocksPerDie = int(dieBytes / int64(g.PagesPerBlock*g.PageSize))
	if g.BlocksPerDie < 4 {
		g.BlocksPerDie = 4
	}
	return g
}

// Validate reports whether the geometry is internally consistent.
func (g Geometry) Validate() error {
	if g.Channels <= 0 || g.DiesPerChannel <= 0 || g.BlocksPerDie <= 0 ||
		g.PagesPerBlock <= 0 || g.PageSize <= 0 {
		return fmt.Errorf("nand: geometry fields must be positive: %+v", g)
	}
	return nil
}

// Dies reports the total die count.
func (g Geometry) Dies() int { return g.Channels * g.DiesPerChannel }

// Blocks reports the total block count.
func (g Geometry) Blocks() int { return g.Dies() * g.BlocksPerDie }

// Pages reports the total page count.
func (g Geometry) Pages() int64 { return int64(g.Blocks()) * int64(g.PagesPerBlock) }

// Capacity reports the raw byte capacity.
func (g Geometry) Capacity() int64 { return g.Pages() * int64(g.PageSize) }

// Latencies holds the operation timing constants. Defaults are FEMU's, which
// the paper uses: 40 µs page read, 200 µs page program, 2 ms block erase.
type Latencies struct {
	PageRead   sim.Duration
	PageWrite  sim.Duration
	BlockErase sim.Duration
	// ChannelXfer is the bus time to move one page between controller and
	// die. FEMU's simple mode folds this into the NAND latencies; keep a
	// small non-zero value so channel contention exists.
	ChannelXfer sim.Duration
}

// DefaultLatencies returns FEMU's default NAND timing.
func DefaultLatencies() Latencies {
	return Latencies{
		PageRead:    40 * sim.Microsecond,
		PageWrite:   200 * sim.Microsecond,
		BlockErase:  2 * sim.Millisecond,
		ChannelXfer: 5 * sim.Microsecond, // ~800 MB/s bus per channel at 4 KiB pages
	}
}

// PPA is a flat physical page address:
// ppa = (die*BlocksPerDie + block)*PagesPerBlock + page.
type PPA int64

// InvalidPPA marks an unmapped physical address.
const InvalidPPA PPA = -1

type blockState struct {
	nextPage int // next programmable page index (sequential-program rule)
	erases   int64
}

// Stats aggregates operation counters for the whole array. The fault
// counters stay zero unless a hook is installed and injects.
type Stats struct {
	Reads    int64
	Programs int64
	Erases   int64

	ReadFaults   int64
	ProgramFails int64
	TornPrograms int64
	EraseFaults  int64
}

// Array is the NAND device. It is not safe for concurrent use; in this
// repository it is only ever touched from simulation context.
type Array struct {
	geo    Geometry
	lat    Latencies
	dies   []sim.Timeline
	chans  []sim.Timeline
	blocks []blockState // indexed by die*BlocksPerDie + block
	// pages is the page table: per PPA, the stored bytes (B nil = holds
	// nothing readable: unwritten since the last erase, failed to program,
	// or discarded) and the pooled segment backing them (Seg nil for torn
	// images, which are plain Go memory dropped to the GC). Each stored
	// page holds one reference, released through the pool's virtual-time
	// quarantine when the FTL discards the page or its block erases,
	// whichever comes first; Relocate moves it to another page.
	pages []bufpool.Ref
	pool  *bufpool.Pool
	// readHorizon is the latest completion time over all reads so far: no
	// outstanding read alias can be consumed after it (plus handler slack).
	// It gates recycling of discarded and erased pages' buffers.
	readHorizon sim.Time
	// clock, when set, reports the engine's current execution instant —
	// required to recycle buffers, because op `now` arguments can run ahead
	// of the clock inside synchronous FTL chains (GC migrations forward
	// future completion times), while quarantined buffers only become safe
	// once the *executing* event time passes every aliasing read.
	clock Clock
	stats Stats
	hook  FaultHook      // nil = perfect device
	trace *vtrace.Tracer // nil = tracing off (the default)
}

// Clock reports the current virtual time; *sim.Engine satisfies it.
type Clock interface {
	Now() sim.Time
}

// SetClock attaches the simulation clock, enabling recycling of discarded
// and erased pages' segments through the buffer pool. Without a clock the
// pool still batches allocations in chunks but never reuses a quarantined
// segment (always safe, just less economical).
func (a *Array) SetClock(c Clock) {
	a.clock = c
	a.pool.SetClock(c)
}

// Pool returns the array's buffer pool: the single pool every layer of a
// stack draws payload segments from.
func (a *Array) Pool() *bufpool.Pool { return a.pool }

// SetFaultHook installs (or, with nil, removes) the fault injector consulted
// on every read, program, and erase.
func (a *Array) SetFaultHook(h FaultHook) { a.hook = h }

// SetTracer attaches (or, with nil, removes) the cell's span recorder. The
// array emits one span per page read/program and block erase, with the span
// Arg carrying the die/channel queue wait in nanoseconds, plus instants for
// injected faults. Absent a tracer the only cost is one nil check per op.
func (a *Array) SetTracer(t *vtrace.Tracer) { a.trace = t }

// New builds an erased array with the given geometry and latencies.
func New(geo Geometry, lat Latencies) (*Array, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	return &Array{
		geo:    geo,
		lat:    lat,
		dies:   make([]sim.Timeline, geo.Dies()),
		chans:  make([]sim.Timeline, geo.Channels),
		blocks: make([]blockState, geo.Blocks()),
		pages:  make([]bufpool.Ref, geo.Pages()),
		pool:   bufpool.New(geo.PageSize),
	}, nil
}

// Geometry returns the array geometry.
func (a *Array) Geometry() Geometry { return a.geo }

// Latencies returns the timing constants.
func (a *Array) Latencies() Latencies { return a.lat }

// Stats returns cumulative operation counters.
func (a *Array) Stats() Stats { return a.stats }

// PPAOf composes a flat physical address.
func (a *Array) PPAOf(die, block, page int) PPA {
	return PPA((int64(die)*int64(a.geo.BlocksPerDie)+int64(block))*int64(a.geo.PagesPerBlock) + int64(page))
}

// DieOf returns the die index of ppa.
func (a *Array) DieOf(ppa PPA) int {
	return int(int64(ppa) / (int64(a.geo.BlocksPerDie) * int64(a.geo.PagesPerBlock)))
}

// BlockOf returns the (global) block index of ppa.
func (a *Array) BlockOf(ppa PPA) int {
	return int(int64(ppa) / int64(a.geo.PagesPerBlock))
}

// PageOf returns the in-block page index of ppa.
func (a *Array) PageOf(ppa PPA) int {
	return int(int64(ppa) % int64(a.geo.PagesPerBlock))
}

func (a *Array) channelOf(die int) int { return die / a.geo.DiesPerChannel }

func (a *Array) checkPPA(ppa PPA) error {
	if ppa < 0 || int64(ppa) >= a.geo.Pages() {
		return fmt.Errorf("nand: PPA %d out of range [0,%d)", ppa, a.geo.Pages())
	}
	return nil
}

// NextProgramPage returns the next programmable page index of a block, or
// PagesPerBlock when the block is full.
func (a *Array) NextProgramPage(die, block int) int {
	return a.blocks[die*a.geo.BlocksPerDie+block].nextPage
}

// Read returns the bytes stored at ppa along with the virtual time at which
// the data is available. Reading a page that was never programmed since its
// last erase is an FTL bug and returns an error.
//
// The returned slice aliases the stored page. It stays valid while the page
// stays stored: the buffers of discarded and erased pages are recycled once
// the clock passes the read horizon, so a caller that keeps the bytes past
// its next simulation yield must know that nothing rewrites or trims the
// logical page meanwhile (GC migration moves the same buffer, so it does
// not count). Every consumer in this repository copies on completion except
// SlimIO's recovery. It decodes a log segment's pages once they are all
// read, before the recovering backend can write to its log again. And it
// hands a snapshot slot's pages to the engine, which decodes them across
// many yields (it bills CPU per chunk) but before it starts: a committed
// slot is rewritten only after a later snapshot supersedes it, and only a
// running engine takes one. Stack teardown releases every page, so a
// caller that keeps the image past teardown must copy it first.
func (a *Array) Read(now sim.Time, ppa PPA) (data []byte, done sim.Time, err error) {
	if err := a.checkPPA(ppa); err != nil {
		return nil, now, err
	}
	if a.hook != nil {
		if herr := a.hook.ReadFault(now, ppa); herr != nil {
			// The die still spent the sense and transfer time; the returned
			// completion time anchors the caller's retry backoff.
			die := a.DieOf(ppa)
			senseStart, senseEnd := a.dies[die].Reserve(now, a.lat.PageRead)
			_, done = a.chans[a.channelOf(die)].Reserve(senseEnd, a.lat.ChannelXfer)
			a.stats.Reads++
			a.stats.ReadFaults++
			if a.trace != nil {
				a.trace.Emit("nand", "read", a.trace.Scope(), now, done, int64(senseStart.Sub(now)))
				a.trace.Instant("fault", "read.err", now, int64(ppa))
			}
			return nil, done, herr
		}
	}
	d := a.pages[ppa].B
	if d == nil {
		return nil, now, fmt.Errorf("nand: read of unwritten page %d", ppa)
	}
	die := a.DieOf(ppa)
	// Die senses the page, then the channel transfers it out.
	senseStart, senseEnd := a.dies[die].Reserve(now, a.lat.PageRead)
	_, done = a.chans[a.channelOf(die)].Reserve(senseEnd, a.lat.ChannelXfer)
	if done > a.readHorizon {
		a.readHorizon = done
	}
	a.stats.Reads++
	if a.trace != nil {
		a.trace.Emit("nand", "read", a.trace.Scope(), now, done, int64(senseStart.Sub(now)))
	}
	return d, done, nil
}

// Program writes data (at most PageSize bytes) to ppa and returns the time
// at which the program completes. It enforces the two NAND rules the FTL
// must respect: pages within a block are programmed strictly in order, and
// a page cannot be reprogrammed without an intervening block erase.
//
// Ownership: when data.Seg is non-nil the array stores the bytes by alias
// and retains one reference on the segment (released, quarantined, when the
// page is discarded or its block erases). Whoever else holds a reference —
// the wal chain, the kernel-path page cache — must treat data.B as immutable
// for as long as the array's reference exists: the wal chain only appends
// past it, the page cache copies on write. A borrowed ref (data.Seg == nil)
// is copied into a pool segment, so one-shot callers (metadata records,
// preconditioning) need no pool plumbing.
func (a *Array) Program(now sim.Time, ppa PPA, data bufpool.Ref) (done sim.Time, err error) {
	if done, err = a.program(now, ppa, data.B); err != nil {
		return done, err
	}
	if data.Seg != nil {
		// Zero-copy store: alias the producer's pooled bytes and hold a
		// reference until the page is discarded or the block erases.
		data.Seg.Retain()
		a.pages[ppa] = data
		return done, nil
	}
	a.storeCopy(ppa, data.B)
	return done, nil
}

// Relocate programs dst with the page stored at src, as GC and retirement
// migration do with live data, and returns the program's completion time.
// It moves src's stored reference to dst instead of retaining it again:
// src holds nothing afterwards, so the FTL's unmap of src releases nothing,
// and the segment is released once, when dst is discarded or erased. On
// error src keeps its page. A torn source image (no pooled segment) is
// copied into a pool segment, as Program copies borrowed bytes.
func (a *Array) Relocate(now sim.Time, src, dst PPA) (done sim.Time, err error) {
	if err := a.checkPPA(src); err != nil {
		return now, err
	}
	ref := a.pages[src]
	if done, err = a.program(now, dst, ref.B); err != nil {
		return done, err
	}
	if ref.Seg == nil {
		a.storeCopy(dst, ref.B)
		return done, nil
	}
	a.pages[dst] = ref
	a.pages[src] = bufpool.Ref{}
	return done, nil
}

// program checks and times a program of b to ppa, leaving the store to the
// caller: on success ppa's page-table slot is the caller's to fill. A
// failed program stores nothing; a torn one stores the fault hook's image.
func (a *Array) program(now sim.Time, ppa PPA, b []byte) (done sim.Time, err error) {
	if err := a.checkPPA(ppa); err != nil {
		return now, err
	}
	if len(b) > a.geo.PageSize {
		return now, fmt.Errorf("nand: program of %d bytes exceeds page size %d", len(b), a.geo.PageSize)
	}
	die := a.DieOf(ppa)
	blockGlobal := a.BlockOf(ppa)
	page := a.PageOf(ppa)
	bs := &a.blocks[blockGlobal]
	if page != bs.nextPage {
		return now, fmt.Errorf("nand: out-of-order program: block %d expects page %d, got %d",
			blockGlobal, bs.nextPage, page)
	}
	bs.nextPage++
	// Channel transfers data in, then the die programs.
	xferStart, xferEnd := a.chans[a.channelOf(die)].Reserve(now, a.lat.ChannelXfer)
	_, done = a.dies[die].Reserve(xferEnd, a.lat.PageWrite)
	a.stats.Programs++
	if a.trace != nil {
		a.trace.Emit("nand", "program", a.trace.Scope(), now, done, int64(xferStart.Sub(now)))
	}
	if a.hook != nil {
		switch dec := a.hook.ProgramFault(now, done, ppa, b); dec.Outcome {
		case ProgramFail:
			// The page is consumed (a failed program cannot be retried in
			// place) but holds nothing readable.
			a.stats.ProgramFails++
			a.trace.Instant("fault", "program.err", now, int64(ppa))
			return done, &DeviceError{Status: StatusWriteFault, Op: "program", PPA: ppa}
		case ProgramTorn:
			a.pages[ppa] = bufpool.Ref{B: dec.Torn}
			a.stats.TornPrograms++
			a.trace.Instant("fault", "program.torn", now, int64(ppa))
			return done, &DeviceError{Status: StatusInterruptedWrite, Op: "program", PPA: ppa}
		}
	}
	return done, nil
}

// storeCopy stores a copy of borrowed bytes at ppa, in a pool segment so
// later caller mutation cannot corrupt "flash" contents. The pool recycles
// dead pages' segments instead of allocating per program; the reclaim gate
// is the engine clock, not `now` (see Array.clock). A recycled segment is
// long out of cache, so Segment.Fill streams the copy past it.
func (a *Array) storeCopy(ppa PPA, b []byte) {
	s := a.pool.Get()
	stored := s.Fill(b)
	a.pages[ppa] = bufpool.Ref{Seg: s, B: stored}
}

// StoredRef returns a pooled view of the page stored at ppa (Seg nil for
// torn images).
func (a *Array) StoredRef(ppa PPA) bufpool.Ref { return a.pages[ppa] }

// ReleaseStored drops every stored page's pool reference immediately (no
// quarantine). Experiment teardown calls it — after the engine has stopped
// and all results are extracted — so the pool's in-flight count can be
// asserted zero; the array is no longer readable afterwards.
func (a *Array) ReleaseStored() {
	for ppa := range a.pages {
		a.release(PPA(ppa), 0)
	}
}

// Discard drops the bytes stored at ppa: the FTL calls it when it unmaps the
// page, after which nothing can address the page until its block erases, so
// the host process need not keep its image. The page stays consumed (program
// order and erase-before-program are untouched); only Read and StoredRef see
// the difference. A page that holds nothing is left alone.
func (a *Array) Discard(ppa PPA) {
	a.release(ppa, a.readHorizon.Add(quarantineSlack))
}

// release drops page ppa's bytes and the reference behind them. The stored
// alias may still back an in-flight read until the read horizon passes; the
// pool quarantines the segment until reusable (0 = no quarantine). Torn
// images drop to the garbage collector.
func (a *Array) release(ppa PPA, reusable sim.Time) {
	if s := a.pages[ppa].Seg; s != nil {
		s.ReleaseAt(reusable)
	}
	a.pages[ppa] = bufpool.Ref{}
}

// Erase wipes a block, making all its pages programmable again, and returns
// the completion time.
func (a *Array) Erase(now sim.Time, die, block int) (done sim.Time, err error) {
	if die < 0 || die >= a.geo.Dies() || block < 0 || block >= a.geo.BlocksPerDie {
		return now, fmt.Errorf("nand: erase of invalid block die=%d block=%d", die, block)
	}
	bs := &a.blocks[die*a.geo.BlocksPerDie+block]
	if a.hook != nil {
		if herr := a.hook.EraseFault(now, die, block); herr != nil {
			// A failed erase still occupies the die; the block keeps its
			// contents and program pointer so the FTL can retire it.
			var eraseStart sim.Time
			eraseStart, done = a.dies[die].Reserve(now, a.lat.BlockErase)
			a.stats.Erases++
			a.stats.EraseFaults++
			if a.trace != nil {
				a.trace.Emit("nand", "erase", a.trace.Scope(), now, done, int64(eraseStart.Sub(now)))
				a.trace.Instant("fault", "erase.err", now, int64(die*a.geo.BlocksPerDie+block))
			}
			return done, herr
		}
	}
	bs.nextPage = 0
	bs.erases++
	base := a.PPAOf(die, block, 0)
	reusable := a.readHorizon.Add(quarantineSlack)
	for p := 0; p < a.geo.PagesPerBlock; p++ {
		a.release(base+PPA(p), reusable)
	}
	var eraseStart sim.Time
	eraseStart, done = a.dies[die].Reserve(now, a.lat.BlockErase)
	a.stats.Erases++
	if a.trace != nil {
		a.trace.Emit("nand", "erase", a.trace.Scope(), now, done, int64(eraseStart.Sub(now)))
	}
	return done, nil
}

// OccupyAllDies books d of service on every die starting at now, modelling
// controller-internal work (injected garbage collection) that competes with
// host commands.
func (a *Array) OccupyAllDies(now sim.Time, d sim.Duration) {
	for i := range a.dies {
		a.dies[i].Reserve(now, d)
	}
}

// WearStats summarizes block erase counts across the array, the input to
// wear-leveling analysis.
type WearStats struct {
	MinErases, MaxErases int64
	TotalErases          int64
	MeanErases           float64
}

// Wear reports erase-count statistics over every block.
func (a *Array) Wear() WearStats {
	var w WearStats
	if len(a.blocks) == 0 {
		return w
	}
	w.MinErases = a.blocks[0].erases
	for i := range a.blocks {
		e := a.blocks[i].erases
		w.TotalErases += e
		if e < w.MinErases {
			w.MinErases = e
		}
		if e > w.MaxErases {
			w.MaxErases = e
		}
	}
	w.MeanErases = float64(w.TotalErases) / float64(len(a.blocks))
	return w
}

// DieBusyTotal reports cumulative busy time of a die, for utilization stats.
func (a *Array) DieBusyTotal(die int) sim.Duration { return a.dies[die].BusyTotal() }

// ChannelBusyTotal reports cumulative busy (transfer) time of a channel,
// for the telemetry plane's per-channel occupancy gauges.
func (a *Array) ChannelBusyTotal(ch int) sim.Duration { return a.chans[ch].BusyTotal() }
