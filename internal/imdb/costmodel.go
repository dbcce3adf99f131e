package imdb

import "github.com/slimio/slimio/internal/sim"

// CostModel holds the host-CPU cost constants of the engine. All values are
// virtual time; the defaults are calibrated so that the simulated baseline
// lands in the paper's measured ranges (Tables 1, 3, 4): tens of thousands
// of requests per second per event loop, snapshot work dominated by
// compression, and fork/COW stalls of the right order for multi-GB
// datasets.
type CostModel struct {
	// CmdBaseCPU is charged per command: parsing, dispatch, hashing,
	// response formatting.
	CmdBaseCPU sim.Duration
	// StoreBandwidth is the memcpy rate for moving values in and out of
	// the store (bytes/second).
	StoreBandwidth int64
	// ForkBase is the fixed cost of fork(2).
	ForkBase sim.Duration
	// ForkPerPage is the page-table copy cost per resident page; the whole
	// fork stalls the main process (Pang et al., VLDB'23 measure tens of
	// milliseconds per GB).
	ForkPerPage sim.Duration
	// COWCopyPerPage is the copy-on-write fault cost per page: both the
	// main process and the snapshot process serialize on the copy.
	COWCopyPerPage sim.Duration
	// SerializeBandwidth is the snapshot-process rate for framing entries.
	SerializeBandwidth int64
	// CompressBandwidth is the snapshot-process compression rate (the paper
	// notes compression dominates snapshot CPU for small values). Virtual
	// time is charged from this constant, never from what internal/snapshot's
	// codec costs the host; only the codec's compressed size reaches the model.
	CompressBandwidth int64
	// DecompressBandwidth is the recovery-side inverse.
	DecompressBandwidth int64
	// InsertPerEntry is the recovery cost to insert one entry into the
	// store.
	InsertPerEntry sim.Duration
	// MemPageSize is the COW granularity (bytes).
	MemPageSize int
	// KeyOverhead approximates per-key allocator/dict overhead (bytes),
	// counted in memory-usage reporting.
	KeyOverhead int
	// SnapshotBatchKeys is how many entries the snapshot process serializes
	// per dict-lock hold.
	SnapshotBatchKeys int
}

// DefaultCostModel returns the calibrated constants.
func DefaultCostModel() CostModel {
	return CostModel{
		CmdBaseCPU:          6 * sim.Microsecond,
		StoreBandwidth:      6 << 30, // 6 GiB/s
		ForkBase:            80 * sim.Microsecond,
		ForkPerPage:         120 * sim.Nanosecond,
		COWCopyPerPage:      4 * sim.Microsecond,
		SerializeBandwidth:  2 << 30,    // 2 GiB/s
		CompressBandwidth:   700 << 20,  // 700 MiB/s (LZF class, as Redis compresses RDB strings)
		DecompressBandwidth: 1400 << 20, // 1400 MiB/s (LZF class)
		InsertPerEntry:      2 * sim.Microsecond,
		MemPageSize:         4096,
		KeyOverhead:         64,
		SnapshotBatchKeys:   64,
	}
}
