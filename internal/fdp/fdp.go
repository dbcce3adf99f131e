// Package fdp implements a Flexible Data Placement (NVMe FDP) flash
// translation layer over a nand.Array.
//
// The host tags each write with a Placement Identifier (PID); the FTL groups
// same-PID data into Reclaim Units (RUs) — fixed-size groups of physical
// blocks striped across dies. Because data that dies together was placed
// together, reclaiming space normally means erasing a wholly-invalid RU with
// zero valid-data movement, which is how the paper's SlimIO configuration
// achieves WAF = 1.00 (paper §2.3, §4.3).
//
// If the host mixes lifetimes within a PID the FTL still works: a partially
// valid RU victim is migrated page by page exactly like a conventional FTL,
// and the copies show up in Stats — making the "FDP only helps if the host
// separates lifetimes" property testable.
package fdp

import (
	"fmt"

	"github.com/slimio/slimio/internal/bufpool"
	"github.com/slimio/slimio/internal/nand"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/vtrace"
)

const (
	maxProgramRetries = 4
	maxReadRetries    = 4
)

// BaseStats is the placement-agnostic FTL accounting the device front-end
// reports (ssd.Device.Stats): every translation layer behind ssd.FTL — the
// FDP FTL, its conventional single-stream variant, a tenant namespace —
// returns it from BaseStats().
type BaseStats struct {
	HostWritePages int64 // page programs requested by the host
	HostReadPages  int64
	NANDWritePages int64 // actual page programs, including GC migration
	GCCopiedPages  int64
	GCErasedBlocks int64
	GCRuns         int64
	GCBusy         sim.Duration // die time consumed by GC reads/programs/erases

	// Fault-handling counters; all stay zero on a perfect device.
	ProgramFailures     int64 // NAND program failures survived by remapping
	RetiredBlocks       int64 // blocks taken out of service
	RetireMigratedPages int64 // valid pages moved off retired blocks
	GCReadRetries       int64 // re-reads of transiently failing pages
	LostPages           int64 // LPAs dropped after unrecoverable reads
	EraseFailures       int64 // erases that failed (block retired instead)
	TornWrites          int64 // programs interrupted by power loss
}

// WAF reports the write amplification factor (1.0 when no host writes yet).
func (s BaseStats) WAF() float64 {
	if s.HostWritePages == 0 {
		return 1
	}
	return float64(s.NANDWritePages) / float64(s.HostWritePages)
}

// Stats extends the base counters with RU-level reclaim info.
type Stats struct {
	BaseStats
	RUsReclaimed      int64
	RUsReclaimedEmpty int64 // reclaimed with zero valid copies (the FDP win)
	// PIDs is a copy of the per-stream counters, indexed by PID and sized
	// MaxPIDs. Reclaim copies are billed to the PID that owned the victim
	// reclaim unit, so multi-tenant roll-ups (PIDLease.Usage) can bill GC
	// work to the stream that caused it; the GCCopies column sums to
	// GCCopiedPages.
	PIDs []PIDCount
}

// PIDCount is one placement stream's cumulative page counters.
type PIDCount struct {
	HostWrites int64
	GCCopies   int64
}

// ReclaimEvent records one RU reclaim for inspection.
type ReclaimEvent struct {
	At          sim.Time
	RU          int
	PID         uint32
	ValidCopied int
	Done        sim.Time
}

// Config tunes the FDP FTL.
type Config struct {
	// BlocksPerRU is the reclaim-unit size in physical blocks (default: one
	// block per die, so an RU stripes across the whole array).
	BlocksPerRU int
	// MaxPIDs is the number of placement identifiers the device supports
	// (default 8, matching the paper's emulated device). Writes with
	// pid >= MaxPIDs are rejected. Every actively-written PID pins one open
	// reclaim unit, so the device needs roughly MaxPIDs+reclaimFreeRUsLow+2
	// reclaim units of physical capacity to serve all streams at once.
	MaxPIDs int
	// OverProvision is the fraction of raw capacity hidden from the host
	// (default 1/8).
	OverProvision float64
	// Trace, when non-nil, records fdp/write, fdp/read and fdp/reclaim
	// spans (reclaim spans carry the copied-page count as Arg, and an empty
	// reclaim — the FDP win — also emits an fdp/reclaim.empty instant).
	Trace *vtrace.Tracer
}

func (c *Config) fillDefaults(geo nand.Geometry) {
	if c.BlocksPerRU <= 0 {
		c.BlocksPerRU = geo.Dies()
	}
	if c.MaxPIDs <= 0 {
		c.MaxPIDs = 8
	}
	if c.OverProvision <= 0 || c.OverProvision >= 1 {
		c.OverProvision = 1.0 / 8
	}
}

const (
	// reclaimFreeRUsLow triggers a proactive (one-RU) reclaim when the free
	// pool is at or below this level. An empty pool forces emergency reclaim
	// until a free RU exists.
	reclaimFreeRUsLow = 2
	// eventLogLimit bounds the retained reclaim log.
	eventLogLimit = 4096
)

type blockRef struct{ die, block int }

type ruState int

const (
	ruFree ruState = iota
	ruOpen
	ruClosed
	// ruDead marks a reclaim unit whose every block has been retired; it
	// leaves the free/open/closed rotation permanently.
	ruDead
)

type reclaimUnit struct {
	id     int
	blocks []blockRef
	state  ruState
	pid    uint32
	valid  int
	// writeCursor is the number of pages programmed into this RU; pages
	// stripe round-robin across the RU's blocks.
	writeCursor int
	// closedSeq orders closed RUs by age, so reclaim's tie-break rotates
	// through the pool instead of thrashing a few units (wear leveling).
	closedSeq int64
	// retiredCnt counts this RU's blocks that have been retired (grown bad
	// blocks). The RU keeps working around them until all are gone.
	retiredCnt int
}

func (ru *reclaimUnit) pages(perBlock int) int { return len(ru.blocks) * perBlock }

// stream is one placement identifier's state: the reclaim unit its writes
// fill (nil until the next write opens one) and its page counters.
type stream struct {
	open *reclaimUnit
	PIDCount
}

// FTL is the FDP translation layer. Not safe for concurrent use.
type FTL struct {
	arr *nand.Array
	cfg Config

	usableLPAs int64
	l2p        []nand.PPA
	p2l        []int64
	ruOf       []int32 // global block index -> RU id

	rus      []*reclaimUnit
	freeRUs  []int
	streams  []stream // indexed by PID, sized MaxPIDs
	closeSeq int64

	// retired flags globally-indexed blocks taken out of service after a
	// program or erase failure; pending queues LPAs stranded on them for
	// migration at the end of the current host write.
	retired []bool
	pending []int64

	// stats keeps the scalar counters; the per-PID ones live in streams
	// until Stats copies them out.
	stats     Stats
	log       []ReclaimEvent
	reclaimIn bool
	pageSz    int
}

// New builds an FDP FTL over a fresh array. The geometry's total block count
// must be a multiple of BlocksPerRU.
func New(arr *nand.Array, cfg Config) (*FTL, error) {
	geo := arr.Geometry()
	cfg.fillDefaults(geo)
	if geo.Blocks()%cfg.BlocksPerRU != 0 {
		return nil, fmt.Errorf("fdp: %d blocks not divisible by RU size %d", geo.Blocks(), cfg.BlocksPerRU)
	}
	nRU := geo.Blocks() / cfg.BlocksPerRU
	// Usable capacity honors over-provisioning and always reserves enough
	// whole reclaim units (threshold+2) for reclaim to make progress even
	// when a partially-valid victim must be migrated.
	pagesPerRU := int64(cfg.BlocksPerRU) * int64(geo.PagesPerBlock)
	usable := int64(float64(geo.Pages()) * (1 - cfg.OverProvision))
	reserve := geo.Pages() - int64(reclaimFreeRUsLow+2)*pagesPerRU
	if reserve < usable {
		usable = reserve
	}
	if usable < 1 {
		usable = 1
	}
	f := &FTL{
		arr:        arr,
		cfg:        cfg,
		usableLPAs: usable,
		l2p:        make([]nand.PPA, geo.Pages()),
		p2l:        make([]int64, geo.Pages()),
		ruOf:       make([]int32, geo.Blocks()),
		retired:    make([]bool, geo.Blocks()),
		streams:    make([]stream, cfg.MaxPIDs),
		pageSz:     geo.PageSize,
	}
	for i := range f.l2p {
		f.l2p[i] = nand.InvalidPPA
	}
	for i := range f.p2l {
		f.p2l[i] = -1
	}
	// Assemble RUs by striping blocks across dies: RU r's j-th block lives
	// on die j mod Dies, so every RU enjoys full array parallelism.
	dieCursor := make([]int, geo.Dies())
	for r := 0; r < nRU; r++ {
		ru := &reclaimUnit{id: r, state: ruFree}
		for j := 0; j < cfg.BlocksPerRU; j++ {
			die := (r*cfg.BlocksPerRU + j) % geo.Dies()
			block := dieCursor[die]
			dieCursor[die]++
			if block >= geo.BlocksPerDie {
				return nil, fmt.Errorf("fdp: RU striping overflowed die %d (choose BlocksPerRU divisible by die count)", die)
			}
			ru.blocks = append(ru.blocks, blockRef{die, block})
			f.ruOf[die*geo.BlocksPerDie+block] = int32(r)
		}
		f.rus = append(f.rus, ru)
		f.freeRUs = append(f.freeRUs, r)
	}
	return f, nil
}

// Capacity reports host-visible logical pages.
func (f *FTL) Capacity() int64 { return f.usableLPAs }

// PageSize reports the page size in bytes.
func (f *FTL) PageSize() int { return f.pageSz }

// Stats returns cumulative counters; PIDs is a fresh copy.
func (f *FTL) Stats() Stats {
	s := f.stats
	s.PIDs = make([]PIDCount, len(f.streams))
	for pid := range f.streams {
		s.PIDs[pid] = f.streams[pid].PIDCount
	}
	return s
}

// BaseStats returns the placement-agnostic counters, satisfying the shared
// device interface.
func (f *FTL) BaseStats() BaseStats { return f.stats.BaseStats }

// Array exposes the NAND array beneath the FTL.
func (f *FTL) Array() *nand.Array { return f.arr }

// ReclaimLog returns retained reclaim events (oldest first).
func (f *FTL) ReclaimLog() []ReclaimEvent { return f.log }

// FreeRUs reports the size of the free reclaim-unit pool.
func (f *FTL) FreeRUs() int { return len(f.freeRUs) }

// RUCount reports the total number of reclaim units.
func (f *FTL) RUCount() int { return len(f.rus) }

// RUUsage describes one reclaim unit for the inspect tooling.
type RUUsage struct {
	ID    int
	State string
	PID   uint32
	Valid int
	Total int
}

// Usage returns a snapshot of every RU's occupancy.
func (f *FTL) Usage() []RUUsage {
	perBlock := f.arr.Geometry().PagesPerBlock
	out := make([]RUUsage, len(f.rus))
	names := map[ruState]string{ruFree: "free", ruOpen: "open", ruClosed: "closed", ruDead: "dead"}
	for i, ru := range f.rus {
		out[i] = RUUsage{ID: ru.id, State: names[ru.state], PID: ru.pid, Valid: ru.valid, Total: ru.pages(perBlock)}
	}
	return out
}

// RetiredBlocks reports how many physical blocks have been retired.
func (f *FTL) RetiredBlocks() int {
	n := 0
	for _, r := range f.retired {
		if r {
			n++
		}
	}
	return n
}

func (f *FTL) checkLPA(lpa int64) error {
	if lpa < 0 || lpa >= f.usableLPAs {
		return fmt.Errorf("fdp: LPA %d out of range [0,%d)", lpa, f.usableLPAs)
	}
	return nil
}

func (f *FTL) invalidate(lpa int64) {
	old := f.l2p[lpa]
	if old == nand.InvalidPPA {
		return
	}
	f.l2p[lpa] = nand.InvalidPPA
	f.unmapPage(old)
}

// unmapPage retires a mapped physical page: nothing can address it until its
// block erases, so the array drops its bytes now instead of at the erase. A
// migration calls it only after Relocate has moved the stored segment to
// the destination page, so the source holds nothing left to release.
func (f *FTL) unmapPage(ppa nand.PPA) {
	f.p2l[ppa] = -1
	f.rus[f.ruOf[f.arr.BlockOf(ppa)]].valid--
	f.arr.Discard(ppa)
}

// nextPPA returns the next physical page of an open RU, striping across its
// blocks so consecutive pages land on different dies. Retired blocks are
// skipped; an RU with every block retired (which openRU never hands out)
// yields InvalidPPA.
func (f *FTL) nextPPA(ru *reclaimUnit) nand.PPA {
	geo := f.arr.Geometry()
	for i := 0; i < len(ru.blocks); i++ {
		b := ru.blocks[ru.writeCursor%len(ru.blocks)]
		ru.writeCursor++
		if f.retired[b.die*geo.BlocksPerDie+b.block] {
			continue
		}
		if f.arr.NextProgramPage(b.die, b.block) >= geo.PagesPerBlock {
			continue // block filled unevenly after a mid-RU retirement
		}
		// The in-block page index equals the block's own program pointer by
		// construction, since pages rotate over the RU's blocks in fixed
		// order (retired blocks simply drop out of the rotation).
		return f.arr.PPAOf(b.die, b.block, f.arr.NextProgramPage(b.die, b.block))
	}
	return nand.InvalidPPA
}

// ruFullAfter reports whether the RU has no programmable page left after
// handing one out at ppa. With no retired blocks the write cursor is an exact
// count and the check is O(1); once blocks retire, remaining capacity is the
// sum of each healthy block's unprogrammed pages (minus the page just handed
// out, which the array has not seen yet).
func (f *FTL) ruFullAfter(ru *reclaimUnit, ppa nand.PPA) bool {
	geo := f.arr.Geometry()
	if ru.retiredCnt == 0 {
		return ru.writeCursor >= ru.pages(geo.PagesPerBlock)
	}
	remaining := 0
	for _, b := range ru.blocks {
		if f.retired[b.die*geo.BlocksPerDie+b.block] {
			continue
		}
		remaining += geo.PagesPerBlock - f.arr.NextProgramPage(b.die, b.block)
	}
	return remaining-1 <= 0
}

// retireBlock takes a global block out of service. LPAs still mapped onto it
// are queued for migration (drained at the end of the host write); if the
// owning reclaim unit loses its last healthy block it goes dead and leaves
// the rotation entirely.
func (f *FTL) retireBlock(g int) {
	if f.retired[g] {
		return
	}
	f.retired[g] = true
	f.stats.RetiredBlocks++
	geo := f.arr.Geometry()
	die, blk := g/geo.BlocksPerDie, g%geo.BlocksPerDie
	base := f.arr.PPAOf(die, blk, 0)
	for p := 0; p < geo.PagesPerBlock; p++ {
		if lpa := f.p2l[base+nand.PPA(p)]; lpa >= 0 {
			f.pending = append(f.pending, lpa)
		}
	}
	ru := f.rus[f.ruOf[g]]
	ru.retiredCnt++
	if ru.retiredCnt < len(ru.blocks) {
		return
	}
	switch ru.state {
	case ruFree:
		for i, id := range f.freeRUs {
			if id == ru.id {
				f.freeRUs = append(f.freeRUs[:i], f.freeRUs[i+1:]...)
				break
			}
		}
	case ruOpen:
		if s := &f.streams[ru.pid]; s.open == ru {
			s.open = nil
		}
	}
	ru.state = ruDead
}

func (f *FTL) noteProgramFail(ppa nand.PPA) {
	f.stats.ProgramFailures++
	f.retireBlock(f.arr.BlockOf(ppa))
}

// readWithRetry reads src, re-reading up to maxReadRetries times on
// transient failures. ok=false means the page is unrecoverable; a non-nil
// err is a model bug.
func (f *FTL) readWithRetry(now sim.Time, src nand.PPA) (data []byte, done sim.Time, ok bool, err error) {
	for attempt := 0; attempt <= maxReadRetries; attempt++ {
		data, done, err = f.arr.Read(now, src)
		if err == nil {
			return data, done, true, nil
		}
		if !nand.IsTransient(err) {
			return nil, now, false, err
		}
		f.stats.GCReadRetries++
		now = done
	}
	return nil, now, false, nil
}

// migrateProgram relocates the page stored at src into pid's stream,
// retiring bad destination blocks and retrying on program failure (src
// keeps its page until a program succeeds).
func (f *FTL) migrateProgram(now sim.Time, pid uint32, src nand.PPA) (nand.PPA, sim.Time, error) {
	for attempt := 0; attempt <= maxProgramRetries; attempt++ {
		dst, ready, err := f.placePage(now, pid)
		if err != nil {
			return nand.InvalidPPA, now, err
		}
		done, err := f.arr.Relocate(ready, src, dst)
		if err == nil {
			return dst, done, nil
		}
		if !nand.IsProgramFail(err) {
			return nand.InvalidPPA, now, err
		}
		f.noteProgramFail(dst)
	}
	return nand.InvalidPPA, now, fmt.Errorf("fdp: migration exhausted %d program attempts", maxProgramRetries+1)
}

// relocate moves lpa's valid page at src into pid's stream: it reads src
// (retrying transient failures), then either drops lpa, when the read is
// unrecoverable (counted as LostPages), or moves the stored page and remaps
// lpa onto it. moved reports which; done is when the program completes.
func (f *FTL) relocate(now sim.Time, lpa int64, src nand.PPA, pid uint32) (done sim.Time, moved bool, err error) {
	_, rdone, ok, err := f.readWithRetry(now, src)
	if err != nil {
		return now, false, fmt.Errorf("read: %w", err)
	}
	if !ok {
		f.invalidate(lpa)
		f.stats.LostPages++
		return now, false, nil
	}
	// Move the stored segment itself (no copy, no new reference) to the
	// destination page.
	dst, done, err := f.migrateProgram(rdone, pid, src)
	if err != nil {
		return now, false, fmt.Errorf("program: %w", err)
	}
	f.unmapPage(src)
	f.mapPage(lpa, dst)
	f.stats.NANDWritePages++
	return done, true, nil
}

// mapPage binds lpa to ppa, a page just programmed with its data: every
// LPA-to-PPA binding (host write, torn write, migration) goes through here.
func (f *FTL) mapPage(lpa int64, ppa nand.PPA) {
	f.l2p[lpa] = ppa
	f.p2l[ppa] = lpa
	f.rus[f.ruOf[f.arr.BlockOf(ppa)]].valid++
}

// drainRetired migrates every LPA stranded on a retired block into its
// stream's open RU. Migration program failures retire further blocks and
// re-queue; the loop terminates because retirements are bounded by the block
// count (the guard catches modelling bugs).
func (f *FTL) drainRetired(now sim.Time) (sim.Time, error) {
	guard, limit := 0, 16*int(f.arr.Geometry().Pages())
	for len(f.pending) > 0 {
		if guard++; guard > limit {
			return now, fmt.Errorf("fdp: retirement migration made no progress after %d steps", guard)
		}
		lpa := f.pending[0]
		f.pending = f.pending[1:]
		src := f.l2p[lpa]
		if src == nand.InvalidPPA || !f.retired[f.arr.BlockOf(src)] {
			continue // invalidated or already moved since queued
		}
		wdone, moved, err := f.relocate(now, lpa, src, f.rus[f.ruOf[f.arr.BlockOf(src)]].pid)
		if err != nil {
			return now, fmt.Errorf("fdp: retirement migration %w", err)
		}
		if !moved {
			continue
		}
		f.stats.RetireMigratedPages++
		if wdone > now {
			now = wdone
		}
	}
	return now, nil
}

// commitTorn decides what a torn program leaves visible after power loss:
// a previously-mapped LPA rolls back to its old page (power-up L2P
// reconstruction only trusts fully programmed pages), a previously-unmapped
// LPA maps to the torn page so the layers above must catch the corruption.
func (f *FTL) commitTorn(lpa int64, ppa nand.PPA) {
	f.stats.TornWrites++
	if f.l2p[lpa] == nand.InvalidPPA {
		f.mapPage(lpa, ppa)
	}
}

// openRU returns the active RU for pid, drawing (and if necessary
// reclaiming) from the free pool. done is when any triggered reclaim work
// finishes.
func (f *FTL) openRU(now sim.Time, pid uint32) (*reclaimUnit, sim.Time, error) {
	s := &f.streams[pid]
	if s.open != nil {
		return s.open, now, nil
	}
	done := now
	if !f.reclaimIn {
		// Emergency: with no free RU at all, reclaim until one appears.
		maxIters := 4 * len(f.rus)
		for iter := 0; len(f.freeRUs) == 0; iter++ {
			if iter > maxIters {
				return nil, now, fmt.Errorf("fdp: reclaim made no progress after %d runs", iter)
			}
			d, reclaimed, err := f.reclaim(done)
			if err != nil {
				return nil, now, err
			}
			if !reclaimed {
				break
			}
			done = d
		}
		// Proactive: restore headroom before the pool empties, so emergency
		// reclaim (which may need a destination RU for migration) never
		// starts from zero. Lifetime-separated victims reclaim in one
		// parallel erase round, so the host-visible stall stays short.
		for len(f.freeRUs) <= reclaimFreeRUsLow {
			d, reclaimed, err := f.reclaim(done)
			if err != nil {
				return nil, now, err
			}
			if !reclaimed {
				break
			}
			done = d
		}
		// Reclaim migration may itself have opened an RU for this PID;
		// reuse it rather than orphaning it.
		if s.open != nil {
			return s.open, done, nil
		}
	}
	if len(f.freeRUs) == 0 {
		return nil, now, fmt.Errorf("fdp: no free reclaim units (device full)")
	}
	// FIFO allocation rotates reclaim units through the pool, spreading
	// erases evenly across blocks (coarse wear leveling).
	id := f.freeRUs[0]
	f.freeRUs = f.freeRUs[1:]
	ru := f.rus[id]
	ru.state = ruOpen
	ru.pid = pid
	ru.writeCursor = 0
	s.open = ru
	return ru, done, nil
}

// reclaim frees the closed RU with the fewest valid pages. A wholly-invalid
// RU costs only erases; otherwise valid pages migrate to their PID's open RU
// first (inflating WAF, which Stats expose). It reports whether a victim was
// reclaimed.
func (f *FTL) reclaim(now sim.Time) (done sim.Time, reclaimed bool, err error) {
	f.reclaimIn = true
	defer func() { f.reclaimIn = false }()

	var victim *reclaimUnit
	for _, ru := range f.rus {
		if ru.state != ruClosed {
			continue
		}
		if victim == nil || ru.valid < victim.valid ||
			(ru.valid == victim.valid && ru.closedSeq < victim.closedSeq) {
			victim = ru
		}
	}
	if victim == nil {
		return now, false, nil
	}

	start, end := now, now
	copied := 0
	// The reclaim span parents the migration and erase NAND work; its parent
	// is the host write that triggered it (published via the tracer scope),
	// so reclaim stalls appear inside the op tree that paid for them.
	tr := f.cfg.Trace
	rcParent := tr.Scope()
	rcSpan := tr.Begin("fdp", "reclaim", rcParent, now)
	tr.SetScope(rcSpan)
	defer func() {
		tr.SetArg(rcSpan, int64(copied))
		tr.End(rcSpan, done)
		tr.SetScope(rcParent)
	}()
	if victim.valid > 0 {
		perBlock := f.arr.Geometry().PagesPerBlock
		for _, b := range victim.blocks {
			for p := 0; p < perBlock; p++ {
				src := f.arr.PPAOf(b.die, b.block, p)
				lpa := f.p2l[src]
				if lpa < 0 {
					continue
				}
				// An unrecoverable read drops that LPA alone; the reclaim
				// goes on.
				wdone, moved, err := f.relocate(now, lpa, src, victim.pid)
				if err != nil {
					return now, false, fmt.Errorf("fdp: reclaim %w", err)
				}
				if !moved {
					continue
				}
				if wdone > end {
					end = wdone
				}
				copied++
				f.stats.GCCopiedPages++
				f.streams[victim.pid].GCCopies++
			}
		}
	}
	// The victim's blocks live on distinct dies, so their erases proceed in
	// parallel: book them all at the same base time. Retired blocks are never
	// erased; an erase failure retires the block instead of failing the
	// reclaim (its pages hold no valid data by now).
	eraseStart := end
	geo := f.arr.Geometry()
	for _, b := range victim.blocks {
		g := b.die*geo.BlocksPerDie + b.block
		if f.retired[g] {
			continue
		}
		edone, err := f.arr.Erase(eraseStart, b.die, b.block)
		if err != nil {
			if !nand.IsEraseFault(err) {
				return now, false, fmt.Errorf("fdp: reclaim erase: %w", err)
			}
			f.stats.EraseFailures++
			f.retireBlock(g)
			if edone > end {
				end = edone
			}
			continue
		}
		if edone > end {
			end = edone
		}
		f.stats.GCErasedBlocks++
	}
	victim.valid = 0
	victim.writeCursor = 0
	if victim.retiredCnt < len(victim.blocks) {
		victim.state = ruFree
		f.freeRUs = append(f.freeRUs, victim.id)
	}

	f.stats.GCRuns++
	f.stats.RUsReclaimed++
	if copied == 0 {
		f.stats.RUsReclaimedEmpty++
		tr.Instant("fdp", "reclaim.empty", start, int64(victim.id))
	}
	f.stats.GCBusy += end.Sub(start)
	if len(f.log) < eventLogLimit {
		f.log = append(f.log, ReclaimEvent{At: start, RU: victim.id, PID: victim.pid, ValidCopied: copied, Done: end})
	}
	return end, true, nil
}

func (f *FTL) closeRU(ru *reclaimUnit, pid uint32) {
	ru.state = ruClosed
	f.closeSeq++
	ru.closedSeq = f.closeSeq
	f.streams[pid].open = nil
}

// placePage hands out the next physical page for pid's stream, rotating the
// open RU when it fills (or when retirements leave it nothing programmable).
func (f *FTL) placePage(now sim.Time, pid uint32) (nand.PPA, sim.Time, error) {
	done := now
	for attempt := 0; attempt < 4; attempt++ {
		ru, d, err := f.openRU(done, pid)
		if err != nil {
			return nand.InvalidPPA, now, err
		}
		done = d
		ppa := f.nextPPA(ru)
		if ppa == nand.InvalidPPA {
			// Every remaining block was retired out from under the RU;
			// close it (reclaim will still erase its healthy blocks) and
			// open a fresh one.
			f.closeRU(ru, pid)
			continue
		}
		if f.ruFullAfter(ru, ppa) {
			f.closeRU(ru, pid)
		}
		return ppa, done, nil
	}
	return nand.InvalidPPA, now, fmt.Errorf("fdp: no programmable reclaim unit for pid %d", pid)
}

// Write stores one page at lpa within the placement stream pid.
//
// A NAND program failure is absorbed: the destination block retires, its
// stranded valid pages migrate, and the write retries on a fresh page. A
// torn program (power cut mid-write) returns the device error after
// recording honest post-crash mapping state — see commitTorn.
func (f *FTL) Write(now sim.Time, lpa int64, data bufpool.Ref, pid uint32) (done sim.Time, err error) {
	if err := f.checkLPA(lpa); err != nil {
		return now, err
	}
	if int(pid) >= f.cfg.MaxPIDs {
		return now, fmt.Errorf("fdp: PID %d exceeds device limit %d", pid, f.cfg.MaxPIDs)
	}
	tr := f.cfg.Trace
	parent := tr.Scope()
	span := tr.Begin("fdp", "write", parent, now)
	tr.SetArg(span, int64(pid))
	tr.SetScope(span)
	defer func() {
		tr.End(span, done)
		tr.SetScope(parent)
	}()
	var ppa nand.PPA
	for attempt := 0; ; attempt++ {
		var ready sim.Time
		ppa, ready, err = f.placePage(now, pid)
		if err != nil {
			return now, err
		}
		done, err = f.arr.Program(ready, ppa, data)
		if err == nil {
			break
		}
		if nand.IsTornWrite(err) {
			f.commitTorn(lpa, ppa)
			return done, err
		}
		if !nand.IsProgramFail(err) || attempt >= maxProgramRetries {
			return now, err
		}
		f.noteProgramFail(ppa)
		if now, err = f.drainRetired(done); err != nil {
			return now, err
		}
	}
	f.invalidate(lpa)
	f.mapPage(lpa, ppa)
	f.stats.HostWritePages++
	f.stats.NANDWritePages++
	f.streams[pid].HostWrites++
	if len(f.pending) > 0 {
		// Retirements during placement/GC queued stranded LPAs; migrate
		// them now so no mapping survives on retired media.
		if _, err := f.drainRetired(done); err != nil {
			return now, err
		}
	}
	return done, nil
}

// Read returns the page stored at lpa.
func (f *FTL) Read(now sim.Time, lpa int64) (data []byte, done sim.Time, err error) {
	if err := f.checkLPA(lpa); err != nil {
		return nil, now, err
	}
	ppa := f.l2p[lpa]
	if ppa == nand.InvalidPPA {
		return nil, now, fmt.Errorf("fdp: read of unmapped LPA %d", lpa)
	}
	f.stats.HostReadPages++
	tr := f.cfg.Trace
	parent := tr.Scope()
	span := tr.Begin("fdp", "read", parent, now)
	tr.SetScope(span)
	data, done, err = f.arr.Read(now, ppa)
	tr.End(span, done)
	tr.SetScope(parent)
	return data, done, err
}

// Deallocate (TRIM) invalidates count LPAs starting at lpa.
func (f *FTL) Deallocate(lpa, count int64) error {
	if count < 0 || lpa < 0 || lpa+count > f.usableLPAs {
		return fmt.Errorf("fdp: deallocate range [%d,%d) out of bounds", lpa, lpa+count)
	}
	for i := int64(0); i < count; i++ {
		f.invalidate(lpa + i)
	}
	return nil
}

// Mapped reports whether lpa currently holds data.
func (f *FTL) Mapped(lpa int64) bool {
	return lpa >= 0 && lpa < f.usableLPAs && f.l2p[lpa] != nand.InvalidPPA
}

// StoredRef returns the page the array stores for lpa, as nand.StoredRef
// does for its physical page; zero when lpa is unmapped. No reference is
// taken: a caller that keeps the bytes past its next yield Retains Seg.
func (f *FTL) StoredRef(lpa int64) bufpool.Ref {
	if !f.Mapped(lpa) {
		return bufpool.Ref{}
	}
	return f.arr.StoredRef(f.l2p[lpa])
}

// Conventional adapts the line-based FTL into a conventional (non-FDP) SSD:
// placement hints are ignored, so every write shares one stream and data
// with different lifetimes mixes within reclaim units (superblocks) — the
// FEMU-style baseline device of the paper's evaluation. Reclaiming such a
// mixed superblock copies its still-valid pages, which is where the
// baseline's write amplification (Table 3: 1.14–1.24) comes from.
type Conventional struct {
	*FTL
}

// NewConventional builds a single-stream line-based FTL over arr.
func NewConventional(arr *nand.Array, cfg Config) (*Conventional, error) {
	cfg.MaxPIDs = 1
	f, err := New(arr, cfg)
	if err != nil {
		return nil, err
	}
	return &Conventional{FTL: f}, nil
}

// Write stores one page at lpa, ignoring the placement hint.
func (c *Conventional) Write(now sim.Time, lpa int64, data bufpool.Ref, pid uint32) (sim.Time, error) {
	return c.FTL.Write(now, lpa, data, 0)
}
