package imdb

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// refStore is the keyspace as it was kept before the entry table: three
// string-keyed maps, an insertion-ordered key list and one copy-on-write
// epoch per page. TestStoreMatchesReference and FuzzStore hold Store to it
// step for step.
type refStore struct {
	vals map[string][]byte
	// keys preserves insertion order for deterministic snapshot iteration;
	// deleted keys leave tombstones (skipped by the snapshot writer), and
	// listed prevents re-inserted keys from being listed twice.
	keys     []string
	listed   map[string]struct{}
	spans    map[string]pageSpan
	bytes    int64
	pageSize int64
	nextPage int64

	// COW bookkeeping: a page with epoch[p] == currentEpoch has already
	// been copied since the last fork.
	epoch     []int32
	curEpoch  int32
	copiedNow int64
}

func newRefStore(pageSize int) *refStore {
	if pageSize <= 0 {
		pageSize = 4096
	}
	return &refStore{
		vals:     make(map[string][]byte),
		listed:   make(map[string]struct{}),
		spans:    make(map[string]pageSpan),
		pageSize: int64(pageSize),
	}
}

func (s *refStore) Len() int { return len(s.vals) }

func (s *refStore) ListedLen() int { return len(s.keys) }

func (s *refStore) Bytes() int64 { return s.bytes }

func (s *refStore) Pages() int64 { return s.nextPage }

func (s *refStore) Get(key string) []byte { return s.vals[key] }

func (s *refStore) Set(key string, value []byte) (isNew bool, span pageSpan) {
	old, exists := s.vals[key]
	if !exists {
		if _, ok := s.listed[key]; !ok {
			s.keys = append(s.keys, key)
			s.listed[key] = struct{}{}
		}
		s.bytes += int64(len(key))
		isNew = true
	} else {
		s.bytes -= int64(len(old))
	}
	s.bytes += int64(len(value))
	s.vals[key] = value

	need := (int64(len(value)) + s.pageSize - 1) / s.pageSize
	if need == 0 {
		need = 1
	}
	sp, ok := s.spans[key]
	if !ok || sp.n < need {
		sp = pageSpan{start: s.nextPage, n: need}
		s.nextPage += need
		s.spans[key] = sp
	}
	return isNew, sp
}

func (s *refStore) Delete(key string) (existed bool, span pageSpan) {
	old, ok := s.vals[key]
	if !ok {
		return false, pageSpan{}
	}
	s.bytes -= int64(len(old)) + int64(len(key))
	delete(s.vals, key)
	span = s.spans[key]
	delete(s.spans, key)
	return true, span
}

func (s *refStore) KeyAt(i int) string { return s.keys[i] }

func (s *refStore) BeginCOWEpoch() {
	s.curEpoch++
	s.copiedNow = 0
}

func (s *refStore) TouchPages(span pageSpan) int64 {
	for int64(len(s.epoch)) < s.nextPage {
		s.epoch = append(s.epoch, 0)
	}
	var copied int64
	for p := span.start; p < span.start+span.n; p++ {
		if s.epoch[p] != s.curEpoch {
			s.epoch[p] = s.curEpoch
			copied++
		}
	}
	s.copiedNow += copied
	return copied
}

func (s *refStore) CopiedPages() int64 { return s.copiedNow }

// refModel drives refStore the way the engine drove it, behind Store's
// method set: pages are touched only while a fork is open.
type refModel struct {
	*refStore
	forked bool
}

func (m *refModel) Set(key string, value []byte) int64 {
	_, span := m.refStore.Set(key, value)
	if !m.forked {
		return 0
	}
	return m.TouchPages(span)
}

func (m *refModel) Delete(key string) int64 {
	existed, span := m.refStore.Delete(key)
	if !m.forked || !existed {
		return 0
	}
	return m.TouchPages(span)
}

func (m *refModel) BeginCOWEpoch() {
	m.refStore.BeginCOWEpoch()
	m.forked = true
}

func (m *refModel) EndCOWEpoch() { m.forked = false }

// storeKeys is the keyspace the step programs draw from: small enough that
// overwrites, deletes and re-inserts are frequent.
var storeKeys = []string{"a", "b", "c", "d", "e", "f", "g", "h"}

// storeValue is the buffer step values are cut from; values are only read,
// so every step may share it.
var storeValue = bytes.Repeat([]byte("0123456789abcdef"), 64)

// checkStoreProgram runs prog against Store and refStore, three bytes per
// step (opcode, key, size), and fails t at the first step after which the two
// differ in copied pages or in anything the engine or a snapshot reads. The
// 64-byte page makes the sizes span zero to sixteen pages, so values grow,
// shrink and keep their size.
func checkStoreProgram(t testing.TB, prog []byte) {
	const pageSize = 64
	got := NewStore(pageSize)
	want := &refModel{refStore: newRefStore(pageSize)}
	for i := 0; i+2 < len(prog); i += 3 {
		op, key, size := prog[i]%8, storeKeys[int(prog[i+1])%len(storeKeys)], 4*int(prog[i+2])
		var step string
		var gotCopied, wantCopied int64
		switch op {
		case 0, 1, 2: // a value of any size: grows, shrinks or keeps the span
			step = fmt.Sprintf("set %s %d", key, size)
			gotCopied, wantCopied = got.Set(key, storeValue[:size]), want.Set(key, storeValue[:size])
		case 3: // the same size again
			size = len(want.Get(key))
			step = fmt.Sprintf("set %s %d (same)", key, size)
			gotCopied, wantCopied = got.Set(key, storeValue[:size]), want.Set(key, storeValue[:size])
		case 4:
			step = fmt.Sprintf("set %s nil", key)
			gotCopied, wantCopied = got.Set(key, nil), want.Set(key, nil)
		case 5:
			step = "delete " + key
			gotCopied, wantCopied = got.Delete(key), want.Delete(key)
		case 6:
			step = "fork"
			got.BeginCOWEpoch()
			want.BeginCOWEpoch()
		case 7:
			step = "end fork"
			got.EndCOWEpoch()
			want.EndCOWEpoch()
		}
		if gotCopied != wantCopied {
			t.Fatalf("step %d (%s): copied %d pages, reference %d", i/3, step, gotCopied, wantCopied)
		}
		if err := diffStores(got, want.refStore); err != nil {
			t.Fatalf("step %d (%s): %v", i/3, step, err)
		}
	}
}

// diffStores reports the first observable difference between s and ref.
func diffStores(s *Store, ref *refStore) error {
	if s.Len() != ref.Len() || s.ListedLen() != ref.ListedLen() {
		return fmt.Errorf("len %d listed %d, reference %d listed %d", s.Len(), s.ListedLen(), ref.Len(), ref.ListedLen())
	}
	if s.Bytes() != ref.Bytes() || s.Pages() != ref.Pages() || s.CopiedPages() != ref.CopiedPages() {
		return fmt.Errorf("bytes %d pages %d copied %d, reference %d %d %d",
			s.Bytes(), s.Pages(), s.CopiedPages(), ref.Bytes(), ref.Pages(), ref.CopiedPages())
	}
	for i := 0; i < s.ListedLen(); i++ {
		if s.KeyAt(i) != ref.KeyAt(i) {
			return fmt.Errorf("KeyAt(%d) = %q, reference %q", i, s.KeyAt(i), ref.KeyAt(i))
		}
	}
	for _, k := range storeKeys {
		v, rv := s.Get(k), ref.Get(k)
		if !bytes.Equal(v, rv) || (v == nil) != (rv == nil) {
			return fmt.Errorf("Get(%q) = %d bytes (nil %v), reference %d (nil %v)", k, len(v), v == nil, len(rv), rv == nil)
		}
	}
	// What the snapshot child copies: the keys with a value, in slot order.
	var want []string
	for i := 0; i < ref.ListedLen(); i++ {
		if ref.Get(ref.KeyAt(i)) != nil {
			want = append(want, ref.KeyAt(i))
		}
	}
	got := appendValued(nil, s.entries)
	if len(got) != len(want) {
		return fmt.Errorf("snapshot batch holds %d entries, reference %d", len(got), len(want))
	}
	for i, e := range got {
		if e.key != want[i] {
			return fmt.Errorf("snapshot batch entry %d is %q, reference %q", i, e.key, want[i])
		}
	}
	return nil
}

func TestStoreMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 3*400)
		rng.Read(prog)
		checkStoreProgram(t, prog)
	}
}

func FuzzStore(f *testing.F) {
	f.Add([]byte{})
	// Fill a key, fork, overwrite it, grow it, delete and re-insert it.
	f.Add([]byte{0, 0, 10, 6, 0, 0, 0, 0, 10, 0, 0, 60, 5, 0, 0, 0, 0, 1, 7, 0, 0})
	rng := rand.New(rand.NewSource(1))
	prog := make([]byte, 3*64)
	rng.Read(prog)
	f.Add(prog)
	f.Fuzz(func(t *testing.T, prog []byte) { checkStoreProgram(t, prog) })
}

// spanOf returns the page span backing key's slot.
func spanOf(s *Store, key string) pageSpan { return s.entries[s.index[key]].span }

func TestStoreBasics(t *testing.T) {
	s := NewStore(4096)
	if c := s.Set("a", bytes.Repeat([]byte("x"), 5000)); c != 0 || s.Len() != 1 {
		t.Fatalf("new key: copied %d outside a fork, len %d", c, s.Len())
	}
	span := spanOf(s, "a")
	if span.n != 2 {
		t.Fatalf("span = %+v, want 2 pages", span)
	}
	s.Set("a", []byte("tiny"))
	if sp := spanOf(s, "a"); sp != span {
		t.Fatalf("shrinking value must keep span: %+v vs %+v", sp, span)
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
	// COW epochs: the first write after a fork copies the whole span.
	s.BeginCOWEpoch()
	if c := s.Set("a", []byte("tiny")); c != 2 {
		t.Fatalf("first touch copied %d, want 2", c)
	}
	if c := s.Set("a", []byte("tiny")); c != 0 {
		t.Fatalf("second touch copied %d, want 0", c)
	}
	s.EndCOWEpoch()
	s.BeginCOWEpoch()
	if c := s.Set("a", []byte("tiny")); c != 2 {
		t.Fatalf("new epoch touch copied %d, want 2", c)
	}
	s.EndCOWEpoch()
	if c := s.Set("a", []byte("tiny")); c != 0 {
		t.Fatalf("write after the fork closed copied %d, want 0", c)
	}
	if s.CopiedPages() != 2 {
		t.Fatalf("epoch copied %d pages, want 2", s.CopiedPages())
	}
}

func TestStoreGrowingValueGetsFreshSpan(t *testing.T) {
	s := NewStore(4096)
	s.Set("k", []byte("small"))
	sp1 := spanOf(s, "k")
	s.BeginCOWEpoch()
	if c := s.Set("k", []byte("small")); c != 1 {
		t.Fatalf("first touch copied %d, want 1", c)
	}
	// The fresh span is unstamped, so the fork copies it once more.
	if c := s.Set("k", bytes.Repeat([]byte("B"), 9000)); c != 3 {
		t.Fatalf("growing write copied %d, want 3", c)
	}
	if sp2 := spanOf(s, "k"); sp2.start == sp1.start || sp2.n != 3 {
		t.Fatalf("grown span = %+v (was %+v)", sp2, sp1)
	}
}

func TestStoreDelete(t *testing.T) {
	s := NewStore(4096)
	s.Set("a", bytes.Repeat([]byte("x"), 5000))
	span := spanOf(s, "a")
	bytesBefore := s.Bytes()
	s.BeginCOWEpoch()
	if c := s.Delete("a"); c != 2 || s.Len() != 0 {
		t.Fatalf("delete copied %d pages, len %d; want 2, 0", c, s.Len())
	}
	if s.Get("a") != nil {
		t.Fatal("deleted key readable")
	}
	if s.Bytes() >= bytesBefore {
		t.Fatal("bytes not reclaimed")
	}
	if c := s.Delete("a"); c != 0 || s.Len() != 0 || s.Bytes() != 0 {
		t.Fatalf("double delete copied %d, len %d, bytes %d", c, s.Len(), s.Bytes())
	}
	// Re-insert after delete reuses the slot, gets a fresh span and counts
	// as new.
	s.Set("a", []byte("back"))
	if s.Len() != 1 || s.ListedLen() != 1 || string(s.Get("a")) != "back" {
		t.Fatalf("re-insert: len %d listed %d value %q", s.Len(), s.ListedLen(), s.Get("a"))
	}
	if sp := spanOf(s, "a"); sp.start == span.start {
		t.Fatalf("re-inserted key kept its old span %+v", sp)
	}
}

// TestStoreAllocBudget holds the keyspace's hot calls to zero allocations: an
// overwrite, a read, and a delete with its re-insert into the tombstone, all
// inside an open fork.
func TestStoreAllocBudget(t *testing.T) {
	s := NewStore(4096)
	keys := storeBenchKeys(64)
	value := make([]byte, 2048)
	for _, k := range keys {
		s.Set(k, value)
	}
	s.BeginCOWEpoch()
	i := 0
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"overwrite", func() { s.Set(keys[i%len(keys)], value) }},
		{"get", func() { _ = s.Get(keys[i%len(keys)]) }},
		{"delete + re-insert", func() { s.Delete(keys[i%len(keys)]); s.Set(keys[i%len(keys)], value) }},
	} {
		if n := testing.AllocsPerRun(1000, func() { c.f(); i++ }); n != 0 {
			t.Errorf("%s: %.1f allocations per call, want 0", c.name, n)
		}
	}
}

// storeBenchKeys returns n keys shaped like the imdb.store_set probe's.
func storeBenchKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%08d", i)
	}
	return keys
}

// BenchmarkStoreSet and BenchmarkStoreGet mirror the imdb.store_set and
// imdb.store_get probes: 2 KiB values over 10 000 keys.
func BenchmarkStoreSet(b *testing.B) {
	s := NewStore(4096)
	keys := storeBenchKeys(10_000)
	value := make([]byte, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Set(keys[i%len(keys)], value)
	}
}

func BenchmarkStoreGet(b *testing.B) {
	s := NewStore(4096)
	keys := storeBenchKeys(10_000)
	value := make([]byte, 2048)
	for _, k := range keys {
		s.Set(k, value)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink []byte
	for i := 0; i < b.N; i++ {
		sink = s.Get(keys[i%len(keys)])
	}
	if sink == nil {
		b.Fatal("store lost a key")
	}
}
