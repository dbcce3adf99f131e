package imdb

// pageSpan is the range of memory pages backing one key's value.
type pageSpan struct {
	start int64
	n     int64
}

// entry is one slot of the keyspace table. A deleted key keeps its slot as a
// tombstone (live false, nil value, zero span), so insertion order — the
// snapshot iteration order — never shifts and a re-insert reuses the slot.
// cow is the fork epoch in which copy-on-write last copied the span.
type entry struct {
	key  string
	val  []byte
	span pageSpan
	cow  int32
	live bool
}

// Store is the in-memory keyspace: one index from key to slot over an
// insertion-ordered entry table. Values are stored by reference; callers
// must not mutate slices they pass in.
//
// Copy-on-write state is one epoch stamp per entry rather than per page. That
// is exact: spans are cut from a monotonic page counter, never overlap, and
// are only ever written whole, so all pages of a span share one copy state.
type Store struct {
	index    map[string]int32
	entries  []entry
	live     int
	bytes    int64
	pageSize int64
	nextPage int64

	// COW bookkeeping: while forked, an entry with cow == epoch has already
	// been copied since the fork.
	epoch     int32
	forked    bool
	copiedNow int64
}

// NewStore returns an empty store with the given COW page size.
func NewStore(pageSize int) *Store {
	if pageSize <= 0 {
		pageSize = 4096
	}
	return &Store{index: make(map[string]int32), pageSize: int64(pageSize)}
}

// Len reports the number of live keys.
func (s *Store) Len() int { return s.live }

// ListedLen reports the snapshot-iteration index range (live keys plus
// tombstones).
func (s *Store) ListedLen() int { return len(s.entries) }

// Bytes reports the sum of key+value payload bytes.
func (s *Store) Bytes() int64 { return s.bytes }

// Pages reports resident memory pages (for fork cost).
func (s *Store) Pages() int64 { return s.nextPage }

// Get returns the value for key, or nil.
func (s *Store) Get(key string) []byte {
	if i, ok := s.index[key]; ok {
		return s.entries[i].val
	}
	return nil
}

// Set stores value under key and returns the pages copy-on-write copied. A
// value that outgrows its span gets a fresh, unstamped one (the old pages
// are simply abandoned, approximating allocator churn).
func (s *Store) Set(key string, value []byte) (copied int64) {
	i, ok := s.index[key]
	if !ok {
		i = int32(len(s.entries))
		s.index[key] = i
		s.entries = append(s.entries, entry{key: key})
	}
	e := &s.entries[i]
	if e.live {
		s.bytes -= int64(len(e.val))
	} else {
		e.live = true
		s.live++
		s.bytes += int64(len(key))
	}
	s.bytes += int64(len(value))
	e.val = value

	need := max((int64(len(value))+s.pageSize-1)/s.pageSize, 1)
	if e.span.n < need {
		e.span = pageSpan{start: s.nextPage, n: need}
		s.nextPage += need
		e.cow = 0
	}
	return s.touch(e)
}

// Delete removes key, leaving a tombstone in its slot, and returns the pages
// copy-on-write copied. Get returns nil for a deleted key and the snapshot
// writer skips it.
func (s *Store) Delete(key string) (copied int64) {
	i, ok := s.index[key]
	if !ok || !s.entries[i].live {
		return 0
	}
	e := &s.entries[i]
	copied = s.touch(e)
	s.bytes -= int64(len(e.val)) + int64(len(key))
	s.live--
	*e = entry{key: key}
	return copied
}

// touch is a write to e's span: while a fork is open, the first write since
// the fork copies every page of it.
func (s *Store) touch(e *entry) int64 {
	if !s.forked || e.cow == s.epoch {
		return 0
	}
	e.cow = s.epoch
	s.copiedNow += e.span.n
	return e.span.n
}

// KeyAt returns the i-th key in insertion order.
func (s *Store) KeyAt(i int) string { return s.entries[i].key }

// appendValued appends to dst the entries of slots [from, to) that hold a
// value, as the snapshot writer iterates them.
func (s *Store) appendValued(dst []entry, from, to int) []entry {
	for _, e := range s.entries[from:to] {
		if e.val != nil {
			dst = append(dst, e)
		}
	}
	return dst
}

// BeginCOWEpoch opens a fork: every page becomes shared again.
func (s *Store) BeginCOWEpoch() {
	s.epoch++
	s.forked = true
	s.copiedNow = 0
}

// EndCOWEpoch closes the fork: writes copy nothing until the next one.
func (s *Store) EndCOWEpoch() { s.forked = false }

// CopiedPages reports pages copied in the current epoch.
func (s *Store) CopiedPages() int64 { return s.copiedNow }

// PageSize reports the COW page size.
func (s *Store) PageSize() int64 { return s.pageSize }
