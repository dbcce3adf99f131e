package crashmc

import (
	"bytes"
	"fmt"
	"hash/fnv"

	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/wal"
)

// Violation is one durability-contract breach at a specific cut. Every
// field is comparable, so two violations from independent replays can be
// checked for bit-identical equality — the repro-file contract.
type Violation struct {
	Target string   `json:"target"`
	Cut    sim.Time `json:"cut"`
	Code   string   `json:"code"`
	Detail string   `json:"detail"`
	TenantOutcome
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

// violation reports a breach by this engine's recovery at cut.
func (e engineOutcome) violation(tgt Target, cut sim.Time, code, detail string) *Violation {
	return &Violation{Target: tgt.String(), Cut: cut, Code: code, Detail: detail, TenantOutcome: e.summary()}
}

// judge is the durability oracle: the engine's model decides whether a
// crash at cut may leave the recovered state (imdb.Model.Admits states the
// rules). A recovered snapshot's image is the one run runOnce copied it
// into before the teardown freed the backend's runs. It returns nil when
// the model admits the state.
func (e engineOutcome) judge(tgt Target, cut sim.Time) *Violation {
	if b := e.Model.Admits(e.Rec); b != nil {
		return e.violation(tgt, cut, b.Code, b.Detail)
	}
	return nil
}

// judgeFull holds the recovery of a run no cut stopped to the model's
// exactly: with every call returned and the log synced, nothing is left
// to chance.
func (e engineOutcome) judgeFull(tgt Target, end sim.Time) *Violation {
	want, _ := e.Model.Recover(nil)
	w, got := engineOutcome{Model: e.Model, Rec: want}.summary(), e.summary()
	if got != w || want.HaveSnapshot != e.Rec.HaveSnapshot || want.Kind != e.Rec.Kind ||
		!bytes.Equal(bytes.Join(want.Snapshot, nil), bytes.Join(e.Rec.Snapshot, nil)) ||
		e.Rec.WALTruncatedAt != -1 || len(e.Rec.Degraded) > 0 {
		return e.violation(tgt, end, "full-run", fmt.Sprintf("recovered %+v (snapshot %v, damage %q), the model %+v (snapshot %v)",
			got, e.Rec.HaveSnapshot, e.Rec.Degraded, w, want.HaveSnapshot))
	}
	return nil
}
