package vtrace

import (
	"bufio"
	"bytes"
	"io"
	"math/bits"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"github.com/slimio/slimio/internal/sim"
)

func newTestWriter(w io.Writer) *bufio.Writer { return bufio.NewWriter(w) }

// TestNilTracerIsNoOp: every method must be callable on a nil tracer — that
// is the whole "tracing off" contract.
func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	id := tr.Begin("ssd", "write", 0, 10)
	if id != 0 {
		t.Fatalf("nil Begin returned %d, want 0", id)
	}
	tr.End(id, 20)
	tr.SetArg(id, 7)
	tr.Emit("nand", "program", 0, 0, 5, 0)
	tr.Instant("fault", "read.err", 3, 1)
	tr.SetScope(4)
	if tr.Scope() != 0 {
		t.Fatal("nil Scope not zero")
	}
	if tr.Spans() != nil || tr.Events() != nil || tr.Dropped() != 0 {
		t.Fatal("nil accessors not empty")
	}
	var reg *Registry
	if reg.Tracer("x") != nil || reg.Get("x") != nil || reg.Labels() != nil {
		t.Fatal("nil registry not inert")
	}
}

func TestNilTracerAllocFree(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(100, func() {
		id := tr.Begin("ssd", "write", 0, 10)
		tr.End(id, 20)
		tr.Emit("nand", "program", id, 10, 20, 0)
		tr.Instant("fault", "err", 15, 1)
	})
	if allocs != 0 {
		t.Fatalf("nil tracer allocates: %v allocs/op", allocs)
	}
}

// TestRecordsArePointerFree: the span and event records hold no pointer, so
// the collector never scans a tracer's record slices, and their sizes are
// the ones the per-cell memory bound in DESIGN.md §8 is computed from.
func TestRecordsArePointerFree(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.String, reflect.Slice, reflect.Map, reflect.Pointer, reflect.UnsafePointer,
			reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("%s is a %s: a record must hold no pointer", path, typ.Kind())
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		}
	}
	walk("Span", reflect.TypeOf(Span{}))
	walk("Event", reflect.TypeOf(Event{}))
	if got := unsafe.Sizeof(Span{}); got != 32 {
		t.Errorf("unsafe.Sizeof(Span{}) = %d, want 32", got)
	}
	if got := unsafe.Sizeof(Event{}); got != 24 {
		t.Errorf("unsafe.Sizeof(Event{}) = %d, want 24", got)
	}
}

// mallocs counts the heap allocations f makes, as testing.AllocsPerRun
// does but for a single run that must not be repeated.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestTracerAllocBudget: once a site is known, recording allocates only
// when a record slice grows, which it does by doubling — at most
// ⌈log₂ n⌉ + 2 allocations for n spans and as many for n instants — and
// nothing at all once the cap is hit.
func TestTracerAllocBudget(t *testing.T) {
	const n = 1 << 16
	tr := New("cell")
	tr.Begin("op", "set", 0, 0)
	tr.Emit("ssd", "write", 0, 0, 1, 0)
	tr.Instant("fault", "read.err", 0, 0)
	budget := uint64(bits.Len(n-1)) + 2
	if got := mallocs(func() {
		for i := 0; i < n/2; i++ {
			id := tr.Begin("op", "set", 0, sim.Time(i))
			tr.Emit("ssd", "write", id, sim.Time(i), sim.Time(i+1), 4)
			tr.End(id, sim.Time(i+1))
		}
	}); got > budget {
		t.Errorf("%d spans on known sites: %d allocations, budget %d", n, got, budget)
	}
	if got := mallocs(func() {
		for i := 0; i < n; i++ {
			tr.Instant("fault", "read.err", sim.Time(i), 1)
		}
	}); got > budget {
		t.Errorf("%d instants on a known site: %d allocations, budget %d", n, got, budget)
	}

	full := New("full")
	full.limit = 8
	for i := 0; i < full.limit; i++ {
		full.Begin("op", "set", 0, 0)
		full.Instant("fault", "read.err", 0, 0)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		full.Begin("op", "set", 0, 1)
		full.Emit("op", "new-site", 0, 1, 2, 0)
		full.Instant("fault", "new-site", 1, 0)
	}); allocs != 0 {
		t.Errorf("recording past the cap allocates: %v allocs/op", allocs)
	}
	if len(full.sites) != 2 {
		t.Errorf("a dropped record interned a site: %d sites, want 2", len(full.sites))
	}
}

func BenchmarkBegin(b *testing.B) {
	tr := New("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(tr.spans) == tr.cap() {
			tr.spans = tr.spans[:0]
		}
		id := tr.Begin("probe", "span", 0, sim.Time(i))
		tr.End(id, sim.Time(i+1))
	}
}

func BenchmarkEmit(b *testing.B) {
	tr := New("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(tr.spans) == tr.cap() {
			tr.spans = tr.spans[:0]
		}
		tr.Emit("probe", "span", 0, sim.Time(i), sim.Time(i+1), 1)
	}
}

func TestSpanLimit(t *testing.T) {
	tr := New("cell")
	tr.limit = 2
	a := tr.Begin("op", "set", 0, 0)
	b := tr.Begin("op", "set", 0, 1)
	c := tr.Begin("op", "set", 0, 2)
	if a == 0 || b == 0 {
		t.Fatal("spans under the cap were dropped")
	}
	if c != 0 {
		t.Fatalf("span over the cap got id %d", c)
	}
	tr.End(c, 5) // must not panic
	tr.Instant("op", "x", 0, 0)
	tr.Instant("op", "x", 0, 0)
	tr.Instant("op", "x", 0, 0)
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
}

// buildSample records a tiny two-op forest with a background tree.
func buildSample(tr *Tracer) {
	// op/set: 0..100 with queue 0..30, apply 30..50, commit.wait 50..100.
	root := tr.Begin("op", "set", 0, 0)
	tr.Emit("imdb", "queue", root, 0, 30, 0)
	tr.Emit("imdb", "apply", root, 30, 50, 0)
	tr.Emit("imdb", "commit.wait", root, 50, 100, 0)
	tr.End(root, 100)
	// op/get: 10..40, queue 10..20, apply 20..40.
	g := tr.Begin("op", "get", 0, 10)
	tr.Emit("imdb", "queue", g, 10, 20, 0)
	tr.Emit("imdb", "apply", g, 20, 40, 0)
	tr.End(g, 40)
	// Background WAL flush tree with a device chain.
	fl := tr.Begin("wal", "flush", 0, 50)
	cmd := tr.Emit("ssd", "write", fl, 55, 95, 0)
	tr.Emit("nand", "program", cmd, 60, 90, 5)
	tr.End(fl, 100)
	tr.Instant("fault", "read.err", 70, 1)
}

// TestAttributionIdentity: stage self-times must telescope exactly to the
// root totals — the int64 identity the 1%-of-mean acceptance test rests on.
func TestAttributionIdentity(t *testing.T) {
	tr := New("cell")
	buildSample(tr)
	a := Compute(tr)

	if len(a.Ops) != 2 {
		t.Fatalf("ops = %d, want 2 (get, set)", len(a.Ops))
	}
	if a.Ops[0].Name != "get" || a.Ops[1].Name != "set" {
		t.Fatalf("ops not sorted: %q, %q", a.Ops[0].Name, a.Ops[1].Name)
	}
	for i := range a.Ops {
		op := &a.Ops[i]
		var sum sim.Duration
		for _, st := range op.Stages {
			sum += st.Self
		}
		if sum != op.Total {
			t.Errorf("%s: Σ stage self = %d, root total = %d", op.Name, sum, op.Total)
		}
	}
	set := &a.Ops[1]
	if set.Total != 100 || set.Mean() != 100 {
		t.Errorf("set total/mean = %v/%v, want 100/100", set.Total, set.Mean())
	}
	// set stages: op/set self = 100-30-20-50 = 0; queue 30 (class queue).
	foundQueue := false
	for _, st := range set.Stages {
		if st.Layer == "imdb" && st.Name == "queue" {
			foundQueue = true
			if st.Class != Queue || st.Self != 30 {
				t.Errorf("imdb/queue = class %v self %v, want queue/30", st.Class, st.Self)
			}
		}
	}
	if !foundQueue {
		t.Error("imdb/queue stage missing")
	}

	if len(a.Trees) != 1 || a.Trees[0].Name != "flush" {
		t.Fatalf("trees = %+v, want one flush tree", a.Trees)
	}
	var sum sim.Duration
	for _, st := range a.Trees[0].Stages {
		sum += st.Self
	}
	if sum != a.Trees[0].Total {
		t.Errorf("flush tree: Σ self = %d, total = %d", sum, a.Trees[0].Total)
	}

	if s := a.Format(); !strings.Contains(s, "per-op end-to-end") || !strings.Contains(s, "imdb/queue") {
		t.Errorf("Format missing expected sections:\n%s", s)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		layer, name string
		want        Class
	}{
		{"imdb", "queue", Queue},
		{"imdb", "commit.wait", Queue},
		{"kernelio", "throttle", Queue},
		{"fdp", "reclaim", GC},
		{"nand", "program", Service},
		{"ssd", "write", Service},
	}
	for _, c := range cases {
		if got := classify(c.layer, c.name); got != c.want {
			t.Errorf("classify(%s/%s) = %v, want %v", c.layer, c.name, got, c.want)
		}
	}
}

// TestExportDeterministicAndValid: export twice (with registration order
// reversed the second time) and require byte-identical, schema-valid JSON.
func TestExportDeterministicAndValid(t *testing.T) {
	build := func(labels []string) *Registry {
		reg := NewRegistry()
		for _, l := range labels {
			buildSample(reg.Tracer(l))
		}
		return reg
	}
	var b1, b2 bytes.Buffer
	if err := build([]string{"cell-a", "cell-b"}).Export(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build([]string{"cell-b", "cell-a"}).Export(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("export depends on registration order")
	}
	if err := ValidateTrace(b1.Bytes()); err != nil {
		t.Fatalf("exported trace fails validation: %v", err)
	}
	out := b1.String()
	for _, want := range []string{`"process_name"`, `"thread_name"`, `"ph":"X"`, `"ph":"i"`, `"cell-a"`} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %s", want)
		}
	}
}

func TestValidateTraceRejects(t *testing.T) {
	bad := []string{
		`{}`,
		`{"traceEvents":[]}`,
		`{"traceEvents":[{"ph":"X","name":"x"}]}`,
		`{"traceEvents":[{"ph":"Z","name":"x"}]}`,
		`{"traceEvents":[{"ph":"X","ts":1,"dur":-2,"pid":1,"tid":1,"name":"x"}]}`,
		`not json`,
	}
	for _, s := range bad {
		if err := ValidateTrace([]byte(s)); err == nil {
			t.Errorf("ValidateTrace accepted %s", s)
		}
	}
}

func TestWriteUsec(t *testing.T) {
	var b bytes.Buffer
	bw := newTestWriter(&b)
	for _, c := range []struct {
		ns   int64
		want string
	}{{0, "0.000"}, {1, "0.001"}, {999, "0.999"}, {1000, "1.000"}, {1234567, "1234.567"}} {
		b.Reset()
		writeUsec(bw, c.ns)
		bw.Flush()
		if b.String() != c.want {
			t.Errorf("writeUsec(%d) = %q, want %q", c.ns, b.String(), c.want)
		}
	}
}
