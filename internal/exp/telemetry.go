package exp

import (
	"fmt"

	"github.com/slimio/slimio/internal/fdp"
	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/ssd"
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
// there — which is the finding). Every probe declares its columns here,
// before the cell's first sample freezes the schema.
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

	nandCols := []string{"nand.reads", "nand.programs", "nand.erases"}
	for ch := 0; ch < geo.Channels; ch++ {
		nandCols = append(nandCols, fmt.Sprintf("nand.chan%d.busy_ns", ch))
	}
	nandCols = append(nandCols, "nand.die_busy_min_ns", "nand.die_busy_max_ns", "nand.die_busy_total_ns")
	dies := geo.Dies()
	cell.AddProbe(nandCols, func(_ sim.Time, v []int64) {
		ns := arr.Stats()
		v[0], v[1], v[2] = ns.Reads, ns.Programs, ns.Erases
		for ch := 0; ch < geo.Channels; ch++ {
			v[3+ch] = int64(arr.ChannelBusyTotal(ch))
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
		die := v[3+geo.Channels:]
		die[0], die[1], die[2] = int64(minB), int64(maxB), int64(total)
	})

	// FTL page counters: host vs NAND writes are the live write-amplification
	// decomposition (WAF at tick k = nand/host); GC copies explain the gap.
	cell.AddProbe([]string{
		"ftl.host_write_pages", "ftl.nand_write_pages", "ftl.gc_copied_pages", "ftl.gc_runs", "ftl.gc_busy_ns",
	}, func(_ sim.Time, v []int64) {
		fs := st.Dev.Stats()
		v[0], v[1], v[2], v[3], v[4] = fs.HostWritePages, fs.NANDWritePages, fs.GCCopiedPages, fs.GCRuns, int64(fs.GCBusy)
	})

	if ru, ok := st.Dev.FTL().(ruIntrospect); ok {
		hValid := cell.Histogram("fdp.ru_valid_pages")
		cell.AddProbe([]string{
			"fdp.free_rus", "fdp.rus_reclaimed", "fdp.rus_reclaimed_empty",
			"fdp.ru_valid_min", "fdp.ru_valid_max", "fdp.ru_valid_avg",
		}, func(_ sim.Time, v []int64) {
			rs := ru.Stats()
			v[0], v[1], v[2] = int64(ru.FreeRUs()), rs.RUsReclaimed, rs.RUsReclaimedEmpty
			var minV, maxV, sum int64
			n := int64(0)
			for _, u := range ru.Usage() {
				if u.State == "free" {
					continue
				}
				valid := int64(u.Valid)
				if n == 0 || valid < minV {
					minV = valid
				}
				if valid > maxV {
					maxV = valid
				}
				sum += valid
				n++
				hValid.Record(sim.Duration(valid))
			}
			v[3], v[4] = minV, maxV
			if n > 0 {
				v[5] = sum / n
			}
		})
	}

	pool := st.Pool()
	cell.AddProbe([]string{
		"ssd.read_retries", "ssd.write_retries", "ssd.read_failures", "ssd.write_failures", "bufpool.inflight",
	}, func(_ sim.Time, v []int64) {
		io := st.ioStats()
		v[0], v[1], v[2], v[3] = io.ReadRetries, io.WriteRetries, io.ReadFailures, io.WriteFailures
		v[4] = int64(pool.InFlight())
	})

	if st.FS != nil {
		cell.AddProbe([]string{
			"kernelio.dirty_pages", "kernelio.wb_inflight", "kernelio.syscalls", "kernelio.writeback_pages",
			"kernelio.throttle_stalls", "kernelio.journal_lock_wait_ns", "kernelio.commits",
		}, func(_ sim.Time, v []int64) {
			s := st.FS.Stats()
			v[0], v[1] = int64(st.FS.DirtyPages()), int64(st.FS.WritebackInflight())
			v[2], v[3], v[4], v[5], v[6] = s.Syscalls, s.WritebackPages, s.ThrottleStalls, int64(s.JournalLockWait), s.Commits
		})
	}

	if st.Slim != nil {
		attachRingTelemetry(cell, "uring.wal", func() *uring.Ring { return st.Slim.WALRing() })
		attachRingTelemetry(cell, "uring.snap", func() *uring.Ring { return st.Slim.SnapshotRing() })
	}

	if len(st.Tenants) > 0 {
		cols := []string{"tenant.count"}
		for _, t := range st.Tenants {
			cols = append(cols, t.Name+".host_pages", t.Name+".waf_x100")
		}
		cell.AddProbe(cols, func(_ sim.Time, v []int64) {
			v[0] = int64(len(st.Tenants))
			for i, t := range st.Tenants {
				v[1+2*i], v[2+2*i] = t.ns.HostWritePages(), st.tenantWAFx100(t)
			}
		})
	}
}

// ioStats sums the front-end retry/failure counts of the device and of every
// tenant's own front-end (tenants issue their commands through theirs).
func (st *Stack) ioStats() ssd.IOStats {
	io := st.Dev.IOStats()
	for _, t := range st.Tenants {
		tio := t.Dev.IOStats()
		io.ReadRetries += tio.ReadRetries
		io.WriteRetries += tio.WriteRetries
		io.ReadFailures += tio.ReadFailures
		io.WriteFailures += tio.WriteFailures
	}
	return io
}

// attachRingTelemetry registers queue-depth and poller columns for one
// io_uring instance. The ring is re-resolved every tick because the
// Snapshot-Path opens a fresh ring per snapshot generation; while no ring
// exists the depths read zero and the cumulative counts hold the last ring's
// final sampled values.
func attachRingTelemetry(cell *telemetry.Cell, prefix string, ring func() *uring.Ring) {
	var last uring.Stats
	cell.AddProbe([]string{
		prefix + ".sq_depth", prefix + ".cq_depth", prefix + ".submitted", prefix + ".completed",
		prefix + ".syscalls", prefix + ".sqpoll_wakes", prefix + ".sqpoll_idle_ns",
	}, func(_ sim.Time, v []int64) {
		if r := ring(); r != nil {
			v[0], v[1] = int64(r.SQDepth()), int64(r.CQDepth())
			last = r.Stats()
		}
		v[2], v[3], v[4], v[5], v[6] = last.Submitted, last.Completed, last.Syscalls, last.SQPollWakes, int64(last.SQPollIdle)
	})
}

// attachEngineTelemetry registers the IMDB-level probe: WAL buffer fill, the
// fsync backlog (drained-but-unaccepted log bytes), whether a sync is in
// flight, and the modelled memory footprint.
func attachEngineTelemetry(db *imdb.Engine, cell *telemetry.Cell) {
	if db == nil || cell == nil {
		return
	}
	cell.AddProbe([]string{
		"imdb.wal_buf_bytes", "imdb.wal_pending_bytes", "imdb.syncing", "imdb.memory_bytes",
	}, func(_ sim.Time, v []int64) {
		v[0], v[1], v[3] = int64(db.WALBufferedBytes()), int64(db.WALPendingBytes()), db.MemoryNow()
		if db.SyncInFlight() {
			v[2] = 1
		}
	})
}
