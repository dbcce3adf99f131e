// Package vtrace is the deterministic, virtual-time tracing layer: spans and
// instant events stamped with sim.Time, recorded per experiment cell and
// exported as Chrome trace-event (Perfetto-compatible) JSON. Nothing here
// touches the wall clock or global randomness — a trace is a pure function of
// the cell's seed, which makes exported traces golden-testable artifacts
// (same seed ⇒ byte-identical JSON) rather than best-effort samples.
//
// A nil *Tracer is the off switch: every method nil-checks and returns
// immediately, so untraced runs pay one predictable branch per call site and
// allocate nothing. Each cell owns at most one Tracer; the simulation engine
// runs one process at a time on one thread, so Tracer needs no locking.
//
// A recorded span or event is a fixed-size record that holds no pointer:
// its (layer, name) pair is interned in the tracer's site table, so the
// garbage collector never scans the record slices and a traced cell's
// memory is bounded by the records' size times DefaultLimit.
package vtrace

import (
	"sort"
	"sync"

	"github.com/slimio/slimio/internal/sim"
)

// SpanID identifies a span within one Tracer: the span's index in Spans()
// plus one. The zero SpanID means "no span": it is the parent of root spans
// and the return value of every recording method once the span limit is hit.
type SpanID int32

// SiteID names a (layer, name) pair within one Tracer; Tracer.Site resolves
// it. Ids are assigned in first-use order, so they are deterministic per
// seed, but they mean nothing outside the tracer that assigned them.
type SiteID int32

// Span is one timed interval in the virtual timeline. Its site names the
// stack stage that recorded it ("imdb", "uring", "ssd", "nand", ...) and
// the operation within that stage. Arg carries one optional layer-defined
// integer (e.g. queue-wait nanoseconds, pages moved).
type Span struct {
	Parent SpanID
	Site   SiteID
	Start  sim.Time
	End    sim.Time
	Arg    int64
}

// Dur reports the span's duration.
func (s *Span) Dur() sim.Duration { return s.End.Sub(s.Start) }

// Event is an instant marker (fault injection, retry, GC lifecycle edge).
type Event struct {
	Site SiteID
	At   sim.Time
	Arg  int64
}

// DefaultLimit caps spans and events per tracer so a long traced run cannot
// exhaust memory; drops beyond the cap are counted, never silent.
const DefaultLimit = 1 << 20

// siteKey is the interned (layer, name) pair a SiteID stands for.
type siteKey struct {
	layer, name string
}

// Tracer records the span forest of one experiment cell. The zero value is
// usable; a nil *Tracer is a no-op recorder.
type Tracer struct {
	Label string

	limit   int
	spans   []Span
	events  []Event
	dropped int64
	scope   SpanID

	// sites lists every (layer, name) pair a recorded span or event uses,
	// indexed by SiteID; siteIDs is its reverse index.
	sites   []siteKey
	siteIDs map[siteKey]SiteID
}

// New returns a Tracer with the default span/event cap.
func New(label string) *Tracer { return &Tracer{Label: label, limit: DefaultLimit} }

// Enabled reports whether the tracer records anything (i.e. is non-nil).
func (t *Tracer) Enabled() bool { return t != nil }

func (t *Tracer) cap() int {
	if t.limit <= 0 {
		return DefaultLimit
	}
	return t.limit
}

// site returns the id of (layer, name), assigning the next one on first use.
func (t *Tracer) site(layer, name string) SiteID {
	k := siteKey{layer, name}
	if id, ok := t.siteIDs[k]; ok {
		return id
	}
	if t.siteIDs == nil {
		t.siteIDs = make(map[siteKey]SiteID)
	}
	id := SiteID(len(t.sites))
	t.sites = append(t.sites, k)
	t.siteIDs[k] = id
	return id
}

// Site resolves a recorded span's or event's site to its layer and name.
func (t *Tracer) Site(id SiteID) (layer, name string) {
	if t == nil {
		return "", ""
	}
	k := t.sites[id]
	return k.layer, k.name
}

// grow returns s with room for one more record. Capacity doubles up to
// limit, so n records cost about log₂ n allocations and the last growth
// stops at the cap instead of overshooting it. The caller has checked
// len(s) < limit.
func grow[T any](s []T, limit int) []T {
	if len(s) < cap(s) {
		return s
	}
	ns := make([]T, len(s), min(max(2*cap(s), 64), limit))
	copy(ns, s)
	return ns
}

// Begin opens a span whose end is not yet known (the recorder will observe
// children before the parent completes). Pair with End.
func (t *Tracer) Begin(layer, name string, parent SpanID, start sim.Time) SpanID {
	return t.Emit(layer, name, parent, start, start, 0)
}

// End closes a span opened by Begin. End(0, ...) is a no-op, so a dropped
// Begin composes safely.
func (t *Tracer) End(id SpanID, end sim.Time) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = end
}

// SetArg attaches the layer-defined integer to an open or closed span.
func (t *Tracer) SetArg(id SpanID, arg int64) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].Arg = arg
}

// Emit records a complete span in one call (for synchronous stages that
// compute their end time before returning).
func (t *Tracer) Emit(layer, name string, parent SpanID, start, end sim.Time, arg int64) SpanID {
	if t == nil {
		return 0
	}
	limit := t.cap()
	if len(t.spans) >= limit {
		t.dropped++
		return 0
	}
	t.spans = append(grow(t.spans, limit), Span{Parent: parent, Site: t.site(layer, name), Start: start, End: end, Arg: arg})
	return SpanID(len(t.spans))
}

// Instant records a point event.
func (t *Tracer) Instant(layer, name string, at sim.Time, arg int64) {
	if t == nil {
		return
	}
	limit := t.cap()
	if len(t.events) >= limit {
		t.dropped++
		return
	}
	t.events = append(grow(t.events, limit), Event{Site: t.site(layer, name), At: at, Arg: arg})
}

// SetScope publishes a parent SpanID for the next cross-layer call, and
// Scope consumes it. The contract that makes this safe without explicit
// parameters everywhere: the caller calls SetScope immediately before the
// call that should inherit the span, and the callee calls Scope as its first
// action, before any Sleep/Wait can hand control to another process. A stale scope left behind after the call returns is harmless —
// nothing reads it without a fresh SetScope first.
func (t *Tracer) SetScope(id SpanID) {
	if t == nil {
		return
	}
	t.scope = id
}

// Scope returns the parent published by the most recent SetScope.
func (t *Tracer) Scope() SpanID {
	if t == nil {
		return 0
	}
	return t.scope
}

// Spans returns the recorded spans in recording order; Site resolves their
// names. The slice is the tracer's backing store; callers must not mutate
// it.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// Events returns the recorded instants in recording order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// Dropped reports how many spans/events were discarded at the cap.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Registry collects the tracers of a multi-cell experiment. Cells may run
// concurrently (each with its own Tracer), so the registry is the only
// locked structure in the package. A nil *Registry hands out nil Tracers,
// which keeps tracing a single `if` away from free everywhere.
type Registry struct {
	mu      sync.Mutex
	tracers map[string]*Tracer
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Tracer returns the tracer for label, creating it on first use. A nil
// registry returns a nil tracer.
func (r *Registry) Tracer(label string) *Tracer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tracers == nil {
		r.tracers = make(map[string]*Tracer)
	}
	t, ok := r.tracers[label]
	if !ok {
		t = New(label)
		r.tracers[label] = t
	}
	return t
}

// Labels returns the registered cell labels in sorted order — the export
// order, independent of registration (and hence scheduling) order.
func (r *Registry) Labels() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	labels := make([]string, 0, len(r.tracers))
	for label := range r.tracers {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	return labels
}

// Get returns the tracer registered under label, or nil.
func (r *Registry) Get(label string) *Tracer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tracers[label]
}
