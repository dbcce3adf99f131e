// Package imdb implements the Redis-like in-memory database engine the
// paper instruments: a key/value store served by a single event-loop
// process, persisted through a pluggable backend by the combination of a
// write-ahead log (Periodical-Log or Always-Log policy) and fork-based
// snapshots (WAL-Snapshots triggered by log growth, On-Demand-Snapshots
// triggered by the operator), with copy-on-write memory accounting.
//
// Two backends exist: internal/baseline (files on the simulated kernel I/O
// path) and internal/core (SlimIO: io_uring passthru onto raw LBA space).
package imdb

import (
	"errors"

	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/wal"
)

// SnapshotKind distinguishes the paper's two snapshot types.
type SnapshotKind int

const (
	// WALSnapshot bounds WAL growth; completing one supersedes and deletes
	// the previous WAL and WAL-Snapshot.
	WALSnapshot SnapshotKind = iota
	// OnDemandSnapshot is an operator-requested point-in-time backup with a
	// long lifetime.
	OnDemandSnapshot
)

func (k SnapshotKind) String() string {
	if k == OnDemandSnapshot {
		return "on-demand"
	}
	return "wal"
}

// SnapshotSink receives a snapshot image chunk by chunk. Write is called
// from the snapshot process; Commit makes the image durable and atomically
// promotes it to the valid snapshot of its kind (superseding the previous
// one); Abort discards a partial image.
type SnapshotSink interface {
	Write(env *sim.Env, chunk []byte) error
	Commit(env *sim.Env) error
	Abort(env *sim.Env) error
}

// Recovered is the durable state a backend reconstructs at startup.
type Recovered struct {
	// HaveSnapshot reports whether a snapshot image was found.
	HaveSnapshot bool
	// Kind is the kind of the recovered snapshot (the paper recovers either
	// the WAL-Snapshot plus the WAL, or an On-Demand-Snapshot alone).
	Kind SnapshotKind
	// Snapshot is the raw snapshot image as the runs of bytes the backend
	// read it as, in order, never concatenated: views of device pages (the
	// last one cut to the image's length) or of page-cache pages, valid
	// only until the recovering engine writes again. Engine.Recover decodes
	// them with snapshot.NewImageReader and then drops them, so the
	// Recovered that LastRecovery returns holds no image.
	Snapshot [][]byte
	// WAL holds the durable log segments in append order (a sealed pre-fork
	// segment, if a WAL-Snapshot was in flight at the crash, then the
	// current segment), each decoded once by the backend with
	// wal.DecodeSegment straight from the device or page-cache pages it
	// read. Each may have its own torn tail. The records have the image's
	// lifetime: views of what the backend read, valid only until the
	// recovering engine writes again (a caller keeping them longer keeps
	// Segment.Clone's copy); Engine.Recover copies the values the store
	// keeps and then drops the records, so the Recovered that LastRecovery
	// returns holds nothing the store uses.
	WAL []wal.Segment
	// WALTruncatedAt is the byte offset into the open WAL segment where
	// decoding stopped on non-zero garbage (mid-segment corruption or a torn
	// page program), or -1 when the segment ended cleanly — a zero tail is
	// the expected crash artifact and does not count. Recovery replays the
	// prefix either way; the offset records how much was salvageable.
	WALTruncatedAt int64
	// Degraded lists human-readable notes about damage recovery worked
	// around (unreadable snapshot pages, corrupt WAL tails, lost segments).
	// Empty means a clean recovery.
	Degraded []string
}

// ErrLogFull is what a backend's WALAppend error wraps when, and only when,
// the log is out of space. The engine parks log bytes refused with it behind
// the snapshot whose completion frees the space; any other append error
// refuses writes until a retried append and a sync succeed.
var ErrLogFull = errors.New("imdb: WAL out of space")

// Backend is the persistence substrate: everything below the engine's
// buffers. Implementations decide how bytes reach storage (kernel path vs
// I/O passthru) and how space is managed (files vs raw LBA regions).
//
// Model is the executable statement of the crash semantics the methods
// below promise: its Recover returns what a crash is guaranteed to leave,
// and its Admits judges what one did leave, call in flight included.
type Backend interface {
	// Label names the backend for reports.
	Label() string

	// WALAppend writes log bytes at the tail of the current log segment.
	// The chain continues the segment's last page: data.Off is that page's
	// fill, and data.Segs[0] holds its bytes below Off. The engine's
	// wal.Buffer keeps this so across rotations and after a recovery, and
	// a backend may refuse any other chain. Durability is only guaranteed
	// after WALSync returns. The chain's segment references transfer to the
	// backend (see wal.Chain), EXCEPT on error: a failed append leaves
	// ownership with the caller, whose wal.Buffer takes the chain back and
	// offers its bytes again later. An error wraps ErrLogFull exactly when
	// the log has no room for the chain.
	WALAppend(env *sim.Env, data wal.Chain) error
	// WALSync makes all appended WAL bytes durable.
	WALSync(env *sim.Env) error
	// WALDurableSize reports bytes appended to the current log segment
	// (the WAL-Snapshot trigger measures growth since the last rotation).
	WALDurableSize() int64
	// WALRotate seals the current log segment and starts a new one. The
	// engine rotates at the fork point of a WAL-Snapshot (Redis 7's
	// multipart AOF): post-fork records land in the new segment, and no
	// replay is needed when the snapshot completes.
	WALRotate(env *sim.Env) error
	// WALDiscardOld drops every sealed segment, keeping only the current
	// one — called once a WAL-Snapshot commit makes the old log obsolete.
	WALDiscardOld(env *sim.Env) error

	// BeginSnapshot opens a sink for a new snapshot image of the given
	// kind. At most one snapshot is in flight at a time (engine-enforced,
	// mirroring Redis).
	BeginSnapshot(env *sim.Env, kind SnapshotKind) (SnapshotSink, error)

	// Recover loads the durable state (used at startup and in the paper's
	// recovery experiment, Table 5).
	Recover(env *sim.Env) (*Recovered, error)
}
