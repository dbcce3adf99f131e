package imdb

import (
	"bytes"
	"fmt"

	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/wal"
)

// Codes naming the rule a recovered state breaks, most severe first.
const (
	// CodeAckedLost: a record covered by a returned WALSync did not survive.
	CodeAckedLost = "acked-lost"
	// CodeAlienRecord: a recovered record is not the next one of its log
	// segment — an invented, reordered or corrupted value.
	CodeAlienRecord = "alien-record"
	// CodeOverRecovered: recovery produced more records than the log holds.
	CodeOverRecovered = "over-recovered"
	// CodeSnapshotLost: a snapshot whose Commit returned was not recovered.
	CodeSnapshotLost = "snapshot-lost"
	// CodeSnapshotAlien: the recovered snapshot matches no committed or
	// committing image.
	CodeSnapshotAlien = "snapshot-alien"
	// CodeDegradedInconsistent: the damage report disagrees with itself (a
	// WAL truncation offset without a Degraded note, or out of range).
	CodeDegradedInconsistent = "degraded-inconsistent"
)

// Breach is a recovered state no crash may leave: Code names the broken
// rule, Detail says how.
type Breach struct{ Code, Detail string }

// Model is the executable statement of the Backend contract: an in-memory
// Backend holding exactly the state the contract promises. The live log is
// a run of sealed segments and the open one, with one synced mark: WALSync
// makes every byte appended before it started durable, WALRotate seals the
// open segment, and WALDiscardOld drops the sealed ones. Committed images
// replace their kind's previous image; an aborted one is never visible.
//
// Recover returns what a crash is guaranteed to leave: each segment's
// synced prefix and the committed images, WAL-Snapshot preferred. Admits
// judges what a crash did leave. The engine replays the segments' records
// in order, so the recovered log must be a concatenation of one prefix of
// each live segment, every prefix reaching that segment's synced mark.
// While a call is in flight, its rule widens what a crash may leave:
//
//   - WALAppend: the open segment may also hold a prefix of the new records.
//   - WALDiscardOld: each sealed segment may come back as any prefix of
//     itself, the empty one included.
//   - Commit: its kind may come back as the old image, the new one, or,
//     on the kernel path's delete-then-rename, neither.
//   - WALSync, WALRotate, BeginSnapshot, Write and Abort widen nothing.
//
// A call that fails changes nothing. The zero Model is an empty backend
// whose calls take no time.
type Model struct {
	// Latency is how long each call takes in virtual time.
	Latency sim.Duration
	// Under, when set, is the backend the model mirrors: every call goes to
	// Under instead of taking Latency, and the model applies it once Under
	// returned without error.
	Under Backend

	log     []byte    // the live log: the sealed segments, then the open one
	seals   []int     // where each sealed segment ends in log
	synced  int       // log[:synced] is durable
	dropped int       // bytes discarded so far, to place marks of syncs in flight
	images  [2][]byte // the committed image of each SnapshotKind, nil if none

	appending  []byte     // the bytes of the WALAppend in flight
	discarding bool       // a WALDiscardOld is in flight
	committing *modelSink // the sink whose Commit is in flight
}

var _ Backend = (*Model)(nil)

// do runs one call: on Under when the model mirrors a backend, otherwise
// as Latency of virtual time.
func (m *Model) do(env *sim.Env, under func() error) error {
	if m.Under != nil {
		return under()
	}
	if m.Latency > 0 {
		env.Sleep(m.Latency)
	}
	return nil
}

// Label names the model for reports.
func (m *Model) Label() string { return "model" }

// WALAppend implements Backend.
func (m *Model) WALAppend(env *sim.Env, data wal.Chain) error {
	var b []byte
	for i := range data.Segs {
		b = append(b, data.Span(i)...)
	}
	m.appending = b
	err := m.do(env, func() error { return m.Under.WALAppend(env, data) })
	m.appending = nil
	if err != nil {
		return err
	}
	if m.Under == nil {
		data.Release()
	}
	m.log = append(m.log, b...)
	return nil
}

// WALSync implements Backend.
func (m *Model) WALSync(env *sim.Env) error {
	mark := m.dropped + len(m.log)
	if err := m.do(env, func() error { return m.Under.WALSync(env) }); err != nil {
		return err
	}
	m.synced = max(m.synced, mark-m.dropped)
	return nil
}

// WALDurableSize implements Backend.
func (m *Model) WALDurableSize() int64 { return int64(len(m.log) - m.sealedLen()) }

// sealedLen is the byte length of the sealed segments.
func (m *Model) sealedLen() int {
	if len(m.seals) == 0 {
		return 0
	}
	return m.seals[len(m.seals)-1]
}

// WALRotate implements Backend.
func (m *Model) WALRotate(env *sim.Env) error {
	if err := m.do(env, func() error { return m.Under.WALRotate(env) }); err != nil {
		return err
	}
	m.seals = append(m.seals, len(m.log))
	return nil
}

// WALDiscardOld implements Backend.
func (m *Model) WALDiscardOld(env *sim.Env) error {
	m.discarding = true
	err := m.do(env, func() error { return m.Under.WALDiscardOld(env) })
	m.discarding = false
	if err != nil {
		return err
	}
	cut := m.sealedLen()
	m.log = append([]byte(nil), m.log[cut:]...)
	m.seals = nil
	m.synced = max(0, m.synced-cut)
	m.dropped += cut
	return nil
}

// modelSink collects one image and, when the model mirrors a backend,
// forwards each call to the backend's sink.
type modelSink struct {
	m     *Model
	under SnapshotSink
	kind  SnapshotKind
	img   []byte
}

// BeginSnapshot implements Backend.
func (m *Model) BeginSnapshot(env *sim.Env, kind SnapshotKind) (SnapshotSink, error) {
	s := &modelSink{m: m, kind: kind, img: []byte{}}
	err := m.do(env, func() (err error) {
		s.under, err = m.Under.BeginSnapshot(env, kind)
		return err
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (s *modelSink) Write(env *sim.Env, chunk []byte) error {
	s.img = append(s.img, chunk...)
	return s.m.do(env, func() error { return s.under.Write(env, chunk) })
}

func (s *modelSink) Commit(env *sim.Env) error {
	s.m.committing = s
	err := s.m.do(env, func() error { return s.under.Commit(env) })
	s.m.committing = nil
	if err == nil {
		s.m.images[s.kind] = s.img
	}
	return err
}

func (s *modelSink) Abort(env *sim.Env) error {
	return s.m.do(env, func() error { return s.under.Abort(env) })
}

// split cuts b, a prefix of the live log, into one run per segment; the
// runs of segments past len(b) are empty.
func (m *Model) split(b []byte) [][]byte {
	runs := make([][]byte, 0, len(m.seals)+1)
	lo := 0
	for _, end := range append(m.seals[:len(m.seals):len(m.seals)], len(m.log)) {
		end = min(end, len(b))
		runs = append(runs, b[lo:end])
		lo = end
	}
	return runs
}

func decode(run []byte) []wal.Record { return wal.DecodeSegment([][]byte{run}).Records }

// Records counts the records of the live log whose WALAppend returned, and
// those of them a returned WALSync covers.
func (m *Model) Records() (appended, acked int) {
	durable := m.split(m.log[:m.synced])
	for i, run := range m.split(m.log) {
		appended += len(decode(run))
		acked += len(decode(durable[i]))
	}
	return appended, acked
}

// Recover implements Backend: what a crash is guaranteed to leave.
func (m *Model) Recover(env *sim.Env) (*Recovered, error) {
	rec := &Recovered{WALTruncatedAt: -1}
	for _, run := range m.split(m.log[:m.synced]) {
		rec.WAL = append(rec.WAL, wal.DecodeSegment([][]byte{run}))
	}
	for _, k := range []SnapshotKind{WALSnapshot, OnDemandSnapshot} {
		if img := m.images[k]; img != nil {
			rec.HaveSnapshot, rec.Kind, rec.Snapshot = true, k, [][]byte{img}
			break
		}
	}
	return rec, nil
}

// mayLeave lists the images of kind a crash may leave, and whether it may
// leave none.
func (m *Model) mayLeave(k SnapshotKind) (imgs [][]byte, none bool) {
	if k != WALSnapshot && k != OnDemandSnapshot {
		return nil, true
	}
	if img := m.images[k]; img != nil {
		imgs = append(imgs, img)
	}
	if s := m.committing; s != nil && s.kind == k {
		return append(imgs, s.img), true
	}
	return imgs, len(imgs) == 0
}

// Admits reports whether a crash at this point may leave rec, as nil, or
// the first rule rec breaks.
func (m *Model) Admits(rec *Recovered) *Breach {
	var got []wal.Record
	for _, seg := range rec.WAL {
		got = append(got, seg.Records...)
	}
	runs, durable := m.split(m.log), m.split(m.log[:m.synced])
	last := runs[len(runs)-1]
	runs[len(runs)-1] = append(last[:len(last):len(last)], m.appending...)
	logged, need := make([][]wal.Record, len(runs)), make([]int, len(runs))
	total, acked := 0, 0
	for i, run := range runs {
		logged[i] = decode(run)
		total += len(logged[i])
		if !m.discarding || i == len(runs)-1 {
			need[i] = len(decode(durable[i]))
		}
		acked += need[i]
	}
	if len(got) > total {
		return &Breach{CodeOverRecovered, fmt.Sprintf("recovered %d records, only %d were ever appended", len(got), total)}
	}
	if far, ok := explains(got, logged, nil); !ok {
		return &Breach{CodeAlienRecord, fmt.Sprintf("record %d (key %q) is not the next record of any log segment", far, got[far].Key)}
	}
	if _, ok := explains(got, logged, need); !ok {
		return &Breach{CodeAckedLost, fmt.Sprintf("recovered %d records, but %d were acked durable", len(got), acked)}
	}

	if rec.HaveSnapshot {
		img := bytes.Join(rec.Snapshot, nil)
		ok := false
		imgs, _ := m.mayLeave(rec.Kind)
		for _, c := range imgs {
			ok = ok || bytes.Equal(c, img)
		}
		if !ok {
			return &Breach{CodeSnapshotAlien, fmt.Sprintf("recovered %d-byte %v snapshot matches no committed or committing image", len(img), rec.Kind)}
		}
	}
	// Recovery prefers the WAL-Snapshot: no kind before the recovered one
	// may have been required.
	for _, k := range []SnapshotKind{WALSnapshot, OnDemandSnapshot} {
		if rec.HaveSnapshot && rec.Kind == k {
			break
		}
		if _, none := m.mayLeave(k); !none {
			return &Breach{CodeSnapshotLost, fmt.Sprintf("the committed %v snapshot was not recovered", k)}
		}
	}

	if rec.WALTruncatedAt != -1 {
		if rec.WALTruncatedAt < 0 {
			return &Breach{CodeDegradedInconsistent, fmt.Sprintf("WALTruncatedAt = %d is neither -1 nor a valid offset", rec.WALTruncatedAt)}
		}
		if len(rec.Degraded) == 0 {
			return &Breach{CodeDegradedInconsistent, fmt.Sprintf("WAL truncated at byte %d but no Degraded note records it", rec.WALTruncatedAt)}
		}
	}
	return nil
}

// explains reports whether got is a concatenation of one prefix of each
// logged segment, each at least need[i] records long (nil: no minimum),
// and how far into got such concatenations reach.
func explains(got []wal.Record, logged [][]wal.Record, need []int) (far int, ok bool) {
	reach := make([]bool, len(got)+1)
	reach[0] = true
	for i, recs := range logged {
		next := make([]bool, len(got)+1)
		for pos, r := range reach {
			if !r {
				continue
			}
			n := 0
			for n < len(recs) && pos+n < len(got) && sameRecord(got[pos+n], recs[n]) {
				n++
			}
			lo := 0
			if need != nil {
				lo = need[i]
			}
			for k := lo; k <= n; k++ {
				next[pos+k] = true
				far = max(far, pos+k)
			}
		}
		reach = next
	}
	return far, reach[len(got)]
}

func sameRecord(a, b wal.Record) bool {
	return a.Op == b.Op && bytes.Equal(a.Key, b.Key) && bytes.Equal(a.Value, b.Value)
}
