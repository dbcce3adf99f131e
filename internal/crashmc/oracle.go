package crashmc

import (
	"fmt"
	"hash/fnv"

	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/snapshot"
)

// Codes naming the state rule a recovery breaks (imdb's Code* constants
// name the rules of Model.Admits): the recovered store is the store after
// fewer ops than the log policy makes durable, or after no prefix of the
// applied ops; the recovered image is the store after no such prefix, so it
// is not the store at its fork.
const (
	CodeStoreLost         = "store-lost-durable-ops"
	CodeStoreNeverExisted = "store-never-existed"
	CodeImageNeverExisted = "image-never-existed"
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
	return fmt.Sprintf("%s @%v %s: %s (ops %d, acked %d, recovered %d, digest %#x)",
		v.Target, v.Cut, v.Code, v.Detail, v.Ops, v.Acked, v.Recovered, v.Digest)
}

// TenantOutcome is one engine's share of a crash run: how many ops its
// engine applied before the cut, how many of them the log policy makes
// durable, and the recovered store as the longest op prefix it is the store
// after (-1 if none) and as its history digest.
type TenantOutcome struct {
	Ops       int    `json:"ops"`
	Acked     int    `json:"acked"`
	Recovered int    `json:"recovered"`
	Digest    uint64 `json:"digest"`
}

// history is one client's ops as the digest of the store after each prefix:
// sums[n] is the digest of apply(ops[:n]), a sum of one hash per live key,
// so each op updates it in O(1) whatever order keys were written in.
type history struct {
	live  map[string]uint64 // each live key's entry hash
	sums  []uint64
	acked int // ops whose reply returned without error
}

func newHistory() history { return history{live: map[string]uint64{}, sums: []uint64{0}} }

// apply appends an op: a SET of key to val, or a DEL when val is nil.
func (h *history) apply(key string, val []byte) {
	sum := h.sums[len(h.sums)-1] - h.live[key]
	delete(h.live, key)
	if val != nil {
		h.live[key] = entryHash(key, val)
		sum += h.live[key]
	}
	h.sums = append(h.sums, sum)
}

// prefix returns the longest n <= hi whose store has digest sum, or -1.
func (h *history) prefix(sum uint64, hi int) int {
	for n := hi; n >= 0; n-- {
		if h.sums[n] == sum {
			return n
		}
	}
	return -1
}

func entryHash(key string, val []byte) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	h.Write([]byte{0})
	h.Write(val)
	return h.Sum64()
}

// storeDigest is the history digest of a store's live keys.
func storeDigest(s *imdb.Store) (sum uint64) {
	for i := 0; i < s.ListedLen(); i++ {
		if v := s.Get(s.KeyAt(i)); v != nil {
			sum += entryHash(s.KeyAt(i), v)
		}
	}
	return sum
}

// imageDigest is the history digest of a snapshot image's entries, as far
// as it decodes.
func imageDigest(img [][]byte) (sum uint64) {
	r := snapshot.NewImageReader(img)
	for batch, err := r.Next(); err == nil; batch, err = r.Next() {
		for _, ent := range batch {
			sum += entryHash(string(ent.Key), ent.Value)
		}
	}
	return sum
}

// engineOutcome is one engine's share of a replay: the model's verdict on
// what the backend recovered, where the recovered store and image sit in
// the client's history (image: the longest prefix of at most Ops whose
// store the image is, -1 if none, 0 without one), how many ops the client
// issued, and the backend call the cut froze, if the checker counts it.
type engineOutcome struct {
	TenantOutcome
	Rec           *imdb.Recovered
	Inside        string
	breach        *imdb.Breach
	issued, image int
}

// newOutcome judges an engine's recovery before the teardown frees the
// views rec holds. The engine applied stats.Sets+stats.Dels ops. The log
// holds one record per op, in op order, so the ops whose records a returned
// WALSync covers or a committed WAL-Snapshot's discard dropped are durable
// under either policy; under Always-Log every acked op is too.
func newOutcome(w Workload, p *probe, stats imdb.Stats, rec *imdb.Recovered, s *imdb.Store) engineOutcome {
	_, synced := p.Records()
	e := engineOutcome{Rec: rec, Inside: p.inside, breach: p.Admits(rec), issued: len(p.sums) - 1}
	e.Ops, e.Acked, e.Digest = int(stats.Sets+stats.Dels), p.dropped+synced, storeDigest(s)
	if w.Policy == imdb.AlwaysLog {
		e.Acked = max(e.Acked, p.acked)
	}
	e.Recovered = p.prefix(e.Digest, e.Ops)
	if rec.HaveSnapshot {
		e.image = p.prefix(imageDigest(rec.Snapshot), e.Ops)
	}
	return e
}

// violation reports a breach by this engine's recovery at cut.
func (e engineOutcome) violation(tgt Target, cut sim.Time, code, detail string) *Violation {
	return &Violation{Target: tgt.String(), Cut: cut, Code: code, Detail: detail, TenantOutcome: e.TenantOutcome}
}

// judge is the durability oracle. The engine's model decides whether a
// crash at cut may leave what the backend recovered (imdb.Model.Admits
// states the rules). The state rule requires the recovered store to be the
// store after n of the client's ops, Acked <= n <= Ops, and the recovered
// image to be the store after some prefix of them: the store at its fork.
// It returns nil when all hold.
func (e engineOutcome) judge(tgt Target, cut sim.Time) *Violation {
	switch {
	case e.breach != nil:
		return e.violation(tgt, cut, e.breach.Code, e.breach.Detail)
	case e.image < 0:
		return e.violation(tgt, cut, CodeImageNeverExisted, fmt.Sprintf("the recovered %v image is the store after none of the first %d ops", e.Rec.Kind, e.Ops))
	case e.Recovered < 0:
		return e.violation(tgt, cut, CodeStoreNeverExisted, fmt.Sprintf("the recovered store is the store after none of the first %d ops", e.Ops))
	case e.Recovered < e.Acked:
		return e.violation(tgt, cut, CodeStoreLost, fmt.Sprintf("the recovered store is the store after %d ops, but %d are durable", e.Recovered, e.Acked))
	}
	return nil
}

// judgeFull holds the recovery of a run no cut stopped to its whole
// history: every op applied and the log flushed at Shutdown.
func (e engineOutcome) judgeFull(tgt Target, end sim.Time) *Violation {
	if v := e.judge(tgt, end); v != nil {
		return v
	}
	if e.Recovered != e.issued || e.Rec.WALTruncatedAt != -1 || len(e.Rec.Degraded) > 0 {
		return e.violation(tgt, end, "full-run", fmt.Sprintf("recovered the store after %d of %d ops (damage %q)", e.Recovered, e.issued, e.Rec.Degraded))
	}
	return nil
}
