package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"github.com/slimio/slimio/internal/bufpool"
	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/ssd"
	"github.com/slimio/slimio/internal/wal"
)

// maxLeafSpans caps the leaf spans kept for the trace file. Totals are
// accumulated for every span, kept or not, so the per-layer metrics never
// depend on the cap; the file says how many leaves it left out.
const maxLeafSpans = 100_000

// span is one timed call. Host times are nanoseconds since the recorder was
// created; virtual times are simulation nanoseconds. A child's host interval
// lies inside its parent's. Virtual intervals need not nest: a device call
// returns at once on the host and completes later on the virtual clock.
type span struct {
	ID        int32  `json:"id"`
	Parent    int32  `json:"parent"`
	Name      string `json:"name"`
	Rep       int    `json:"rep"`
	HostStart int64  `json:"host_start_ns"`
	HostEnd   int64  `json:"host_end_ns"`
	VirtStart int64  `json:"virt_start_ns"`
	VirtEnd   int64  `json:"virt_end_ns"`
}

type spanTotal struct {
	calls  int64
	hostNs int64
}

// recorder keeps the traced run's spans in memory. The simulator runs one
// process at a time, so it needs no lock.
type recorder struct {
	t0      time.Time
	spans   []span
	leaves  int
	dropped int64
	totals  map[string]*spanTotal

	rep  int
	root int32 // the repetition's span; calls into the layers hang under it

	// Backend calls from different simulated processes interleave on the
	// host, so the time "inside some backend call" is the union of their
	// intervals: it grows while at least one is open. phaseCover is the
	// part of each phase that union covers.
	openCalls  int
	coverStart int64
	cover      int64
	phaseCover map[string]int64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), totals: make(map[string]*spanTotal), phaseCover: make(map[string]int64)}
}

func (r *recorder) now() int64 { return time.Since(r.t0).Nanoseconds() }

// openSpan is a span begun and not yet ended. id is 0 when the span is only
// totalled, not kept for the trace file.
type openSpan struct {
	name  string
	id    int32
	start int64
	cover int64 // backend cover when a phase opened
}

// begin opens a span. Structural spans (repetition, phase) are always kept;
// a leaf is kept while the cap allows and its parent was kept.
func (r *recorder) begin(name string, parent int32, structural bool, virt sim.Time) openSpan {
	s := openSpan{name: name, start: r.now()}
	if !structural {
		if parent == 0 || r.leaves >= maxLeafSpans {
			r.dropped++
			return s
		}
		r.leaves++
	}
	s.id = int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{
		ID: s.id, Parent: parent, Name: name, Rep: r.rep,
		HostStart: s.start, HostEnd: s.start, VirtStart: int64(virt), VirtEnd: int64(virt),
	})
	return s
}

// end closes s, adds it to its name's total and returns the host time.
func (r *recorder) end(s openSpan, virt sim.Time) int64 {
	now := r.now()
	if s.id != 0 {
		kept := &r.spans[s.id-1]
		kept.HostEnd = now
		kept.VirtEnd = int64(virt)
	}
	t := r.totals[s.name]
	if t == nil {
		t = &spanTotal{}
		r.totals[s.name] = t
	}
	t.calls++
	t.hostNs += now - s.start
	return now
}

// coverAt is the backend cover up to host time now.
func (r *recorder) coverAt(now int64) int64 {
	if r.openCalls > 0 {
		return r.cover + now - r.coverStart
	}
	return r.cover
}

// openRep opens the span of the next repetition; the phases and every call
// into the layers become its children. A backend call may straddle two phases (a
// snapshot still streaming when the clients finish), so calls hang under the
// repetition, not under the phase they began in. A nil recorder (untraced
// run) records nothing.
func (r *recorder) openRep() openSpan {
	if r == nil {
		return openSpan{}
	}
	r.rep++
	s := r.begin("rep", 0, true, 0)
	r.root = s.id
	return s
}

// openPhase opens a phase of the current repetition.
func (r *recorder) openPhase(name string, virt sim.Time) openSpan {
	if r == nil {
		return openSpan{}
	}
	s := r.begin(name, r.root, true, virt)
	s.cover = r.coverAt(s.start)
	return s
}

// closePhase closes a repetition or phase span.
func (r *recorder) closePhase(s openSpan, virt sim.Time) {
	if r == nil {
		return
	}
	now := r.end(s, virt)
	r.phaseCover[s.name] += r.coverAt(now) - s.cover
}

func (r *recorder) beginBackend(name string, virt sim.Time) openSpan {
	s := r.begin(name, r.root, false, virt)
	if r.openCalls == 0 {
		r.coverStart = s.start
	}
	r.openCalls++
	return s
}

func (r *recorder) endBackend(s openSpan, virt sim.Time) {
	now := r.end(s, virt)
	r.openCalls--
	if r.openCalls == 0 {
		r.cover += now - r.coverStart
	}
}

func (r *recorder) total(name string) spanTotal {
	if t := r.totals[name]; t != nil {
		return *t
	}
	return spanTotal{}
}

func (r *recorder) hostMs(name string) float64 { return float64(r.total(name).hostNs) / 1e6 }

// traceFile is the on-disk form of a traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Note     string `json:"note"`
	Dropped  int64  `json:"dropped_leaf_spans"`
	Spans    []span `json:"spans"`
}

func (r *recorder) write(path, workload string, seed int64) error {
	tf := traceFile{
		Workload: workload,
		Seed:     seed,
		Note: "host_*_ns: nanoseconds since the run started, children inside parents; " +
			"virt_*_ns: simulation clock, a device call's virtual interval may outlast its parent's",
		Dropped: r.dropped,
		Spans:   r.spans,
	}
	data, err := json.Marshal(&tf)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// validateTrace checks a trace file's structure: every parent exists, was
// recorded before its child, and encloses it on the host clock.
func validateTrace(data []byte) error {
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return fmt.Errorf("parse trace: %w", err)
	}
	if len(tf.Spans) == 0 {
		return fmt.Errorf("trace holds no spans")
	}
	for i, s := range tf.Spans {
		if int(s.ID) != i+1 {
			return fmt.Errorf("span %d has id %d", i+1, s.ID)
		}
		if s.HostEnd < s.HostStart {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 0 || s.Parent >= s.ID {
			return fmt.Errorf("span %d (%s) names parent %d, which is not an earlier span", s.ID, s.Name, s.Parent)
		}
		p := tf.Spans[s.Parent-1]
		if s.HostStart < p.HostStart || s.HostEnd > p.HostEnd {
			return fmt.Errorf("span %d (%s) [%d,%d] lies outside parent %d (%s) [%d,%d]",
				s.ID, s.Name, s.HostStart, s.HostEnd, p.ID, p.Name, p.HostStart, p.HostEnd)
		}
	}
	return nil
}

// tracedBackend interposes on the imdb.Backend boundary. Its spans are
// inclusive: a call blocks in virtual time while other simulated processes
// run on the host.
type tracedBackend struct {
	imdb.Backend
	rec    *recorder
	prefix string // "core" or "baseline"
}

func (b *tracedBackend) WALAppend(env *sim.Env, data wal.Chain) error {
	s := b.rec.beginBackend(b.prefix+".wal_append", env.Now())
	err := b.Backend.WALAppend(env, data)
	b.rec.endBackend(s, env.Now())
	return err
}

func (b *tracedBackend) WALSync(env *sim.Env) error {
	s := b.rec.beginBackend(b.prefix+".wal_sync", env.Now())
	err := b.Backend.WALSync(env)
	b.rec.endBackend(s, env.Now())
	return err
}

func (b *tracedBackend) Recover(env *sim.Env) (*imdb.Recovered, error) {
	s := b.rec.beginBackend(b.prefix+".recover", env.Now())
	rec, err := b.Backend.Recover(env)
	b.rec.endBackend(s, env.Now())
	return rec, err
}

func (b *tracedBackend) BeginSnapshot(env *sim.Env, kind imdb.SnapshotKind) (imdb.SnapshotSink, error) {
	sink, err := b.Backend.BeginSnapshot(env, kind)
	if err != nil {
		return nil, err
	}
	return &tracedSink{SnapshotSink: sink, rec: b.rec, name: b.prefix + ".snapshot_write"}, nil
}

type tracedSink struct {
	imdb.SnapshotSink
	rec  *recorder
	name string
}

func (s *tracedSink) Write(env *sim.Env, chunk []byte) error {
	sp := s.rec.beginBackend(s.name, env.Now())
	err := s.SnapshotSink.Write(env, chunk)
	s.rec.endBackend(sp, env.Now())
	return err
}

func (s *tracedSink) Commit(env *sim.Env) error {
	sp := s.rec.beginBackend(s.name, env.Now())
	err := s.SnapshotSink.Commit(env)
	s.rec.endBackend(sp, env.Now())
	return err
}

// tracedFTL interposes on the ssd.FTL boundary. The calls do not block, so
// a span's host time is exactly the time spent inside fdp and nand. cmd is
// the device command the call belongs to (dev-churn issues its commands from
// one goroutine and sets it); 0 hangs the span under the repetition.
type tracedFTL struct {
	ssd.FTL
	rec *recorder
	cmd int32
}

func (f *tracedFTL) parent() int32 {
	if f.cmd != 0 {
		return f.cmd
	}
	return f.rec.root
}

func (f *tracedFTL) Write(now sim.Time, lpa int64, data bufpool.Ref, pid uint32) (sim.Time, error) {
	s := f.rec.begin("fdp.write", f.parent(), false, now)
	done, err := f.FTL.Write(now, lpa, data, pid)
	f.rec.end(s, done)
	return done, err
}

func (f *tracedFTL) Read(now sim.Time, lpa int64) ([]byte, sim.Time, error) {
	s := f.rec.begin("fdp.read", f.parent(), false, now)
	data, done, err := f.FTL.Read(now, lpa)
	f.rec.end(s, done)
	return data, done, err
}
