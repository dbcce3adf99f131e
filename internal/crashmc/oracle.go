package crashmc

import (
	"bytes"
	"fmt"
	"hash/fnv"

	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/wal"
)

// Violation codes, most severe first in enumeration reports.
const (
	// CodeAckedLost: a record covered by a returned WALSync (or, under
	// MutAckOnAppend, a claimed ack) did not survive recovery.
	CodeAckedLost = "acked-lost"
	// CodeAlienRecord: recovery produced a record that diverges from the
	// issued sequence — an invented, reordered, or corrupted value.
	CodeAlienRecord = "alien-record"
	// CodeOverRecovered: recovery produced more records than were ever
	// appended.
	CodeOverRecovered = "over-recovered"
	// CodeSnapshotLost: a snapshot whose Commit returned before the cut
	// (with no later commit racing it) was not recovered.
	CodeSnapshotLost = "snapshot-lost"
	// CodeSnapshotAlien: the recovered snapshot matches no committed or
	// committing image.
	CodeSnapshotAlien = "snapshot-alien"
	// CodeDegradedInconsistent: the damage report disagrees with itself
	// (a WAL truncation offset without a Degraded note, or out of range).
	CodeDegradedInconsistent = "degraded-inconsistent"
)

// Violation is one durability-contract breach at a specific cut. Every
// field is comparable, so two violations from independent replays can be
// checked for bit-identical equality — the repro-file contract.
type Violation struct {
	Target    string   `json:"target"`
	Cut       sim.Time `json:"cut"`
	Code      string   `json:"code"`
	Detail    string   `json:"detail"`
	Appended  int      `json:"appended"`
	Acked     int      `json:"acked"`
	Recovered int      `json:"recovered"`
	// Digest is an FNV-1a fold of the recovered record sequence.
	Digest uint64 `json:"digest"`
}

func (v *Violation) String() string {
	return fmt.Sprintf("%s @%v %s: %s (appended %d, acked %d, recovered %d, digest %#x)",
		v.Target, v.Cut, v.Code, v.Detail, v.Appended, v.Acked, v.Recovered, v.Digest)
}

// recoveredRecords concatenates the durable record prefixes of the
// recovered WAL segments in order.
func recoveredRecords(rec *imdb.Recovered) []wal.Record {
	var out []wal.Record
	for _, seg := range rec.WAL {
		out = append(out, seg.Records...)
	}
	return out
}

// digestRecords folds a record sequence for cheap bit-identity checks.
func digestRecords(recs []wal.Record) uint64 {
	h := fnv.New64a()
	for _, rc := range recs {
		h.Write([]byte{byte(rc.Op)})
		h.Write(rc.Key)
		h.Write(rc.Value)
	}
	return h.Sum64()
}

// checkOracle judges one recovered state against the client-visible
// history at the cut. The contract (DESIGN.md §6):
//
//   - prefix rule: the recovered record sequence must be an exact prefix
//     of the issued sequence — unacked writes recover to old-or-new, never
//     to an alien value, and never reorder;
//   - ack rule: the prefix is no shorter than the acked count — every
//     write whose covering sync returned before the cut survives;
//   - snapshot rule: a recovered snapshot must byte-match a committed or
//     commit-in-flight image, and the latest committed image is mandatory
//     unless a later commit was racing the cut (in that window the kernel
//     path's delete-then-rename may legitimately leave neither);
//   - damage-report rule: a WAL truncation offset must be in range and
//     carry a Degraded note.
//
// A recovered snapshot's image is rec.Snapshot[0]: runOnce copies the runs
// the backend read into that one run before the teardown frees them. It
// returns nil when every rule holds.
func checkOracle(tgt Target, cut sim.Time, h *History, rec *imdb.Recovered) *Violation {
	recs := recoveredRecords(rec)
	mk := func(code, detail string) *Violation {
		return &Violation{
			Target:    tgt.String(),
			Cut:       cut,
			Code:      code,
			Detail:    detail,
			Appended:  len(h.Ops),
			Acked:     h.Acked,
			Recovered: len(recs),
			Digest:    digestRecords(recs),
		}
	}

	// Prefix rule.
	if len(recs) > len(h.Ops) {
		return mk(CodeOverRecovered,
			fmt.Sprintf("recovered %d records, only %d were ever appended", len(recs), len(h.Ops)))
	}
	for i, rc := range recs {
		if rc.Op != h.Ops[i].Op || !bytes.Equal(rc.Key, h.Ops[i].Key) || !bytes.Equal(rc.Value, h.Ops[i].Value) {
			return mk(CodeAlienRecord,
				fmt.Sprintf("record %d diverges from the issued sequence (key %q vs %q)", i, rc.Key, h.Ops[i].Key))
		}
	}

	// Ack rule.
	if len(recs) < h.Acked {
		return mk(CodeAckedLost,
			fmt.Sprintf("recovered %d records, but %d were acked durable", len(recs), h.Acked))
	}

	// Snapshot rule.
	lastCommitted := -1
	commitInFlight := false
	for i, se := range h.Snaps {
		if se.Committed {
			lastCommitted = i
		}
		if se.CommitInFlight {
			commitInFlight = true
		}
	}
	var img []byte
	if rec.HaveSnapshot {
		img = rec.Snapshot[0]
		if rec.Kind != imdb.WALSnapshot {
			return mk(CodeSnapshotAlien,
				fmt.Sprintf("recovered a %v snapshot, but only wal snapshots were written", rec.Kind))
		}
		ok := false
		for _, se := range h.Snaps {
			if (se.Committed || se.CommitInFlight) && bytes.Equal(img, se.Img) {
				ok = true
				break
			}
		}
		if !ok {
			return mk(CodeSnapshotAlien,
				fmt.Sprintf("recovered %d-byte snapshot matches no committed or committing image", len(img)))
		}
	}
	if lastCommitted >= 0 && !commitInFlight {
		// No commit was racing the cut, so the last acked image is
		// mandatory: Commit's return promised it durable.
		if !rec.HaveSnapshot {
			return mk(CodeSnapshotLost,
				fmt.Sprintf("snapshot %d committed before the cut but none recovered", lastCommitted))
		}
		if !bytes.Equal(img, h.Snaps[lastCommitted].Img) {
			return mk(CodeSnapshotLost,
				fmt.Sprintf("recovered snapshot is not the last committed image (index %d)", lastCommitted))
		}
	}

	// Damage-report rule.
	if rec.WALTruncatedAt != -1 {
		if rec.WALTruncatedAt < 0 {
			return mk(CodeDegradedInconsistent,
				fmt.Sprintf("WALTruncatedAt = %d is neither -1 nor a valid offset", rec.WALTruncatedAt))
		}
		if len(rec.Degraded) == 0 {
			return mk(CodeDegradedInconsistent,
				fmt.Sprintf("WAL truncated at byte %d but no Degraded note records it", rec.WALTruncatedAt))
		}
	}
	return nil
}
