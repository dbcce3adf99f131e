// Package core implements SlimIO, the paper's contribution: a lightweight
// persistence backend for in-memory databases that writes the WAL and
// snapshots through separate io_uring passthru paths onto raw LBA space of
// an (ideally FDP-capable) SSD, with per-lifetime placement identifiers.
//
// The package provides:
//
//   - an explicit LBA space layout — Metadata / WAL / Snapshot regions
//     (§4.2), with the snapshot region managed as three slots (WAL-Snapshot,
//     On-Demand-Snapshot, Reserve) and new images always written to the
//     Reserve slot before being promoted;
//   - a WAL-Path ring owned by the main process and a fresh SQPOLL
//     Snapshot-Path ring per snapshot process (§4.1);
//   - checksummed, sequence-numbered metadata records making promotion and
//     WAL swaps crash-atomic;
//   - the recovery procedure (§4.2): read metadata, load the snapshot, then
//     replay the WAL — using a sequential read-ahead reader (§5.3);
//   - lifetime-based PID assignment (§4.3): WAL and WAL-Snapshots are
//     short-lived, On-Demand-Snapshots long-lived, metadata its own stream.
package core

import (
	"fmt"

	"github.com/slimio/slimio/internal/vtrace"
)

// Placement identifiers per lifetime class (§4.3). The paper names WAL = 1
// and On-Demand-Snapshot = 2 explicitly; WAL-Snapshots share the WAL's
// short-lifetime class argument but get their own stream, and metadata is
// tiny but hot, so it is separated too.
const (
	PIDWAL         uint32 = 1
	PIDWALSnapshot uint32 = 2
	PIDOnDemand    uint32 = 3
	PIDMetadata    uint32 = 4
)

// slotRole is the current role of one snapshot slot.
type slotRole uint8

const (
	roleReserve slotRole = iota
	roleWALSnap
	roleOnDemand
)

func (r slotRole) String() string {
	switch r {
	case roleWALSnap:
		return "wal-snapshot"
	case roleOnDemand:
		return "on-demand"
	default:
		return "reserve"
	}
}

// Config tunes the SlimIO backend.
type Config struct {
	// MetaPages is the metadata region size (default 64 pages, written
	// cyclically).
	MetaPages int64
	// SlotPages is the size of each of the three snapshot slots. Default:
	// one fifth of the device, leaving the rest for the WAL ring.
	SlotPages int64
	// SnapshotNoSQPoll makes each Snapshot-Path submit by syscall, like the
	// WAL-Path (interrupt-driven io_uring, one syscall per submission
	// batch). The default is SQPOLL, so the snapshot process never issues a
	// syscall (§4.1); the SQPOLL ablation turns it off.
	SnapshotNoSQPoll bool
	// Trace, when non-nil, records core-layer spans (wal.append, wal.sync,
	// slot.write, slot.commit, meta.write) and is propagated into both rings
	// so uring command spans nest underneath. Nil disables tracing.
	Trace *vtrace.Tracer
}

const (
	// recoveryReadAhead is the sequential read-ahead window, in pages, of
	// the recovery reader.
	recoveryReadAhead int64 = 256
	// maxWALInflight bounds in-flight WAL-Path write commands before the
	// writer blocks on the oldest completion.
	maxWALInflight = 64
)

func (c *Config) fillDefaults(capacity int64) {
	if c.MetaPages <= 0 {
		c.MetaPages = 64
	}
	if c.SlotPages <= 0 {
		c.SlotPages = capacity / 5
	}
}

// layout is the computed LBA partitioning.
type layout struct {
	metaStart, metaPages int64
	slotStart            [3]int64
	slotPages            int64
	walStart, walPages   int64 // the WAL region (managed as a ring)
}

func computeLayout(capacity int64, cfg Config) (layout, error) {
	var l layout
	l.metaStart = 0
	l.metaPages = cfg.MetaPages
	l.slotPages = cfg.SlotPages
	next := l.metaPages
	for i := 0; i < 3; i++ {
		l.slotStart[i] = next
		next += l.slotPages
	}
	l.walStart = next
	l.walPages = capacity - next
	if l.walPages < 8 {
		return l, fmt.Errorf("core: device too small: %d pages left for WAL region", l.walPages)
	}
	return l, nil
}

// SlotInfo describes one snapshot slot for inspection.
type SlotInfo struct {
	Index int
	Role  string
	Start int64
	Pages int64
	Used  int64 // bytes of the committed image (0 for reserve)
}

// Stats aggregates backend counters.
type Stats struct {
	WALPageWrites      int64
	WALTailRewrites    int64
	SnapshotPageWrites int64
	MetadataWrites     int64
	Promotions         int64
	WALRotations       int64
	WALResets          int64 // sealed-segment discards
	DeallocatedPages   int64
}

func pagesNeeded(bytes int64, pageSize int64) int64 {
	return (bytes + pageSize - 1) / pageSize
}

// splitWrap splits an [off, off+n) page run inside a ring region of size
// regionPages into at most two contiguous runs (handling wrap-around).
type pageRun struct{ start, n int64 }

func splitWrap(regionStart, regionPages, off, n int64) []pageRun {
	off %= regionPages
	if off+n <= regionPages {
		return []pageRun{{regionStart + off, n}}
	}
	first := regionPages - off
	return []pageRun{
		{regionStart + off, first},
		{regionStart, n - first},
	}
}
