package exp

import (
	"fmt"

	"github.com/slimio/slimio/internal/fdp"
	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/metrics"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/telemetry"
	"github.com/slimio/slimio/internal/uring"
)

// ruIntrospect is the reclaim-unit inspection surface shared by the FDP FTL
// and its conventional (single-stream) variant — both expose it, so the
// telemetry plane samples RU occupancy on every stack kind.
type ruIntrospect interface {
	FreeRUs() int
	RUCount() int
	Usage() []fdp.RUUsage
	Stats() fdp.Stats
}

// AttachStackTelemetry registers the per-layer probes of a built stack on
// cell: NAND (op counts, per-channel and per-die busy time), FTL (write and
// GC page counters — the decomposed live-WAF series), FDP (free reclaim
// units, reclaim counts, per-RU valid-page occupancy), SSD retries, the
// buffer pool's in-flight count, and the path-specific layers (kernel
// filesystem or SlimIO rings). A multi-tenant stack adds, per tenant, its
// host write volume and live WAF in integer hundredths (a conventional
// device cannot attribute GC, so every tenant reads the device-global WAF
// there — which is the finding). All gauges are created here, before the
// cell starts, so the flight ring and the export see one fixed, sorted
// schema.
//
// A nil cell (telemetry off) makes this a no-op; the stack stays untouched
// and allocation-free. Probes only read state, so attaching telemetry never
// perturbs the simulation's event order.
func AttachStackTelemetry(st *Stack, cell *telemetry.Cell) {
	if st == nil || cell == nil {
		return
	}

	arr := st.Dev.FTL().Array()
	geo := arr.Geometry()

	gReads := cell.Gauge("nand.reads")
	gPrograms := cell.Gauge("nand.programs")
	gErases := cell.Gauge("nand.erases")
	chanGauges := make([]*metrics.Gauge, geo.Channels)
	for ch := 0; ch < geo.Channels; ch++ {
		chanGauges[ch] = cell.Gauge(fmt.Sprintf("nand.chan%d.busy_ns", ch))
	}
	gDieBusyMin := cell.Gauge("nand.die_busy_min_ns")
	gDieBusyMax := cell.Gauge("nand.die_busy_max_ns")
	gDieBusyTotal := cell.Gauge("nand.die_busy_total_ns")
	dies := geo.Dies()
	cell.AddProbe(func(now sim.Time) {
		ns := arr.Stats()
		gReads.Set(now, ns.Reads)
		gPrograms.Set(now, ns.Programs)
		gErases.Set(now, ns.Erases)
		for ch, g := range chanGauges {
			g.Set(now, int64(arr.ChannelBusyTotal(ch)))
		}
		var minB, maxB, total sim.Duration
		for d := 0; d < dies; d++ {
			b := arr.DieBusyTotal(d)
			if d == 0 || b < minB {
				minB = b
			}
			if b > maxB {
				maxB = b
			}
			total += b
		}
		gDieBusyMin.Set(now, int64(minB))
		gDieBusyMax.Set(now, int64(maxB))
		gDieBusyTotal.Set(now, int64(total))
	})

	// FTL page counters: host vs NAND writes are the live write-amplification
	// decomposition (WAF at tick k = nand/host); GC copies explain the gap.
	gHostW := cell.Gauge("ftl.host_write_pages")
	gNANDW := cell.Gauge("ftl.nand_write_pages")
	gGCCopied := cell.Gauge("ftl.gc_copied_pages")
	gGCRuns := cell.Gauge("ftl.gc_runs")
	gGCBusy := cell.Gauge("ftl.gc_busy_ns")
	cell.AddProbe(func(now sim.Time) {
		fs := st.Dev.Stats()
		gHostW.Set(now, fs.HostWritePages)
		gNANDW.Set(now, fs.NANDWritePages)
		gGCCopied.Set(now, fs.GCCopiedPages)
		gGCRuns.Set(now, fs.GCRuns)
		gGCBusy.Set(now, int64(fs.GCBusy))
	})

	if ru, ok := st.Dev.FTL().(ruIntrospect); ok {
		gFreeRUs := cell.Gauge("fdp.free_rus")
		gReclaimed := cell.Gauge("fdp.rus_reclaimed")
		gReclaimedEmpty := cell.Gauge("fdp.rus_reclaimed_empty")
		gValidMin := cell.Gauge("fdp.ru_valid_min")
		gValidMax := cell.Gauge("fdp.ru_valid_max")
		gValidAvg := cell.Gauge("fdp.ru_valid_avg")
		hValid := cell.Histogram("fdp.ru_valid_pages")
		cell.AddProbe(func(now sim.Time) {
			gFreeRUs.Set(now, int64(ru.FreeRUs()))
			rs := ru.Stats()
			gReclaimed.Set(now, rs.RUsReclaimed)
			gReclaimedEmpty.Set(now, rs.RUsReclaimedEmpty)
			var minV, maxV, sum int64
			n := int64(0)
			for _, u := range ru.Usage() {
				if u.State == "free" {
					continue
				}
				v := int64(u.Valid)
				if n == 0 || v < minV {
					minV = v
				}
				if v > maxV {
					maxV = v
				}
				sum += v
				n++
				hValid.Record(sim.Duration(v))
			}
			gValidMin.Set(now, minV)
			gValidMax.Set(now, maxV)
			if n > 0 {
				gValidAvg.Set(now, sum/n)
			} else {
				gValidAvg.Set(now, 0)
			}
		})
	}

	gReadRetries := cell.Gauge("ssd.read_retries")
	gWriteRetries := cell.Gauge("ssd.write_retries")
	gReadFail := cell.Gauge("ssd.read_failures")
	gWriteFail := cell.Gauge("ssd.write_failures")
	gInFlight := cell.Gauge("bufpool.inflight")
	pool := st.Pool()
	cell.AddProbe(func(now sim.Time) {
		io := st.Dev.IOStats()
		for _, t := range st.Tenants {
			// Tenants issue their commands through their own front-ends.
			tio := t.Dev.IOStats()
			io.ReadRetries += tio.ReadRetries
			io.WriteRetries += tio.WriteRetries
			io.ReadFailures += tio.ReadFailures
			io.WriteFailures += tio.WriteFailures
		}
		gReadRetries.Set(now, io.ReadRetries)
		gWriteRetries.Set(now, io.WriteRetries)
		gReadFail.Set(now, io.ReadFailures)
		gWriteFail.Set(now, io.WriteFailures)
		gInFlight.Set(now, int64(pool.InFlight()))
	})

	if st.FS != nil {
		gDirty := cell.Gauge("kernelio.dirty_pages")
		gWB := cell.Gauge("kernelio.wb_inflight")
		gSys := cell.Gauge("kernelio.syscalls")
		gWBPages := cell.Gauge("kernelio.writeback_pages")
		gStalls := cell.Gauge("kernelio.throttle_stalls")
		gJLock := cell.Gauge("kernelio.journal_lock_wait_ns")
		gCommits := cell.Gauge("kernelio.commits")
		cell.AddProbe(func(now sim.Time) {
			gDirty.Set(now, int64(st.FS.DirtyPages()))
			gWB.Set(now, int64(st.FS.WritebackInflight()))
			s := st.FS.Stats()
			gSys.Set(now, s.Syscalls)
			gWBPages.Set(now, s.WritebackPages)
			gStalls.Set(now, s.ThrottleStalls)
			gJLock.Set(now, int64(s.JournalLockWait))
			gCommits.Set(now, s.Commits)
		})
	}

	if st.Slim != nil {
		attachRingTelemetry(cell, "uring.wal", func() *uring.Ring { return st.Slim.WALRing() })
		attachRingTelemetry(cell, "uring.snap", func() *uring.Ring { return st.Slim.SnapshotRing() })
	}

	if len(st.Tenants) > 0 {
		gTenants := cell.Gauge("tenant.count")
		cell.AddProbe(func(now sim.Time) { gTenants.Set(now, int64(len(st.Tenants))) })
	}
	for _, t := range st.Tenants {
		gPages := cell.Gauge(t.Name + ".host_pages")
		gWAF := cell.Gauge(t.Name + ".waf_x100")
		cell.AddProbe(func(now sim.Time) {
			gPages.Set(now, t.ns.HostWritePages())
			gWAF.Set(now, st.tenantWAFx100(t))
		})
	}
}

// attachRingTelemetry registers queue-depth and poller gauges for one
// io_uring instance. The ring is re-resolved every tick because the
// Snapshot-Path opens a fresh ring per snapshot generation; while no ring
// exists the gauges read zero.
func attachRingTelemetry(cell *telemetry.Cell, prefix string, ring func() *uring.Ring) {
	gSQ := cell.Gauge(prefix + ".sq_depth")
	gCQ := cell.Gauge(prefix + ".cq_depth")
	gSub := cell.Gauge(prefix + ".submitted")
	gComp := cell.Gauge(prefix + ".completed")
	gSys := cell.Gauge(prefix + ".syscalls")
	gWakes := cell.Gauge(prefix + ".sqpoll_wakes")
	gIdle := cell.Gauge(prefix + ".sqpoll_idle_ns")
	cell.AddProbe(func(now sim.Time) {
		r := ring()
		if r == nil {
			gSQ.Set(now, 0)
			gCQ.Set(now, 0)
			return
		}
		gSQ.Set(now, int64(r.SQDepth()))
		gCQ.Set(now, int64(r.CQDepth()))
		s := r.Stats()
		gSub.Set(now, s.Submitted)
		gComp.Set(now, s.Completed)
		gSys.Set(now, s.Syscalls)
		gWakes.Set(now, s.SQPollWakes)
		gIdle.Set(now, int64(s.SQPollIdle))
	})
}

// attachEngineTelemetry registers the IMDB-level probes: WAL buffer fill,
// the fsync backlog (drained-but-unaccepted log bytes), whether a sync is
// in flight, and the modelled memory footprint.
func attachEngineTelemetry(db *imdb.Engine, cell *telemetry.Cell) {
	if db == nil || cell == nil {
		return
	}
	gBuf := cell.Gauge("imdb.wal_buf_bytes")
	gPending := cell.Gauge("imdb.wal_pending_bytes")
	gSyncing := cell.Gauge("imdb.syncing")
	gMem := cell.Gauge("imdb.memory_bytes")
	cell.AddProbe(func(now sim.Time) {
		gBuf.Set(now, int64(db.WALBufferedBytes()))
		gPending.Set(now, int64(db.WALPendingBytes()))
		syncing := int64(0)
		if db.SyncInFlight() {
			syncing = 1
		}
		gSyncing.Set(now, syncing)
		gMem.Set(now, db.MemoryNow())
	})
}
