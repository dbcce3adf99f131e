package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

// chunkCollector gathers emitted frames into one stream.
type chunkCollector struct {
	stream bytes.Buffer
	chunks int
}

func (c *chunkCollector) emit(chunk []byte, raw int) error {
	c.chunks++
	c.stream.Write(chunk)
	return nil
}

func writeSnapshot(t *testing.T, chunkSize int, entries []Entry) *chunkCollector {
	t.Helper()
	col := &chunkCollector{}
	w, err := NewWriter(chunkSize, col.emit)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := w.Add(e.Key, e.Value); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return col
}

func readAll(t *testing.T, stream []byte) []Entry {
	t.Helper()
	r := NewReader(bytes.NewReader(stream))
	var out []Entry
	for {
		batch, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, batch...)
	}
}

func genEntries(n int, valueSize int, seed int64) []Entry {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Entry, n)
	for i := range out {
		v := make([]byte, valueSize)
		// Half-compressible data: realistic ratios.
		rng.Read(v[:valueSize/2])
		out[i] = Entry{
			Key:   []byte(fmt.Sprintf("key:%08d", i)),
			Value: v,
		}
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	entries := genEntries(500, 256, 1)
	col := writeSnapshot(t, 8<<10, entries)
	got := readAll(t, col.stream.Bytes())
	if len(got) != len(entries) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(entries))
	}
	for i := range entries {
		if !bytes.Equal(got[i].Key, entries[i].Key) || !bytes.Equal(got[i].Value, entries[i].Value) {
			t.Fatalf("entry %d mismatch", i)
		}
	}
}

func TestEmptySnapshot(t *testing.T) {
	col := writeSnapshot(t, 0, nil)
	got := readAll(t, col.stream.Bytes())
	if len(got) != 0 {
		t.Fatalf("empty snapshot decoded %d entries", len(got))
	}
}

func TestChunkingRespectsTarget(t *testing.T) {
	entries := genEntries(1000, 512, 2)
	col := writeSnapshot(t, 16<<10, entries)
	// ~1000*520B = 520KB raw over 16KB chunks => ~33 chunks (+hdr+trailer).
	if col.chunks < 20 || col.chunks > 60 {
		t.Fatalf("chunks = %d, want ~35", col.chunks)
	}
}

func TestCompressionActuallyCompresses(t *testing.T) {
	entries := make([]Entry, 200)
	for i := range entries {
		entries[i] = Entry{
			Key:   []byte(fmt.Sprintf("k%04d", i)),
			Value: bytes.Repeat([]byte("ABCD"), 256), // highly compressible
		}
	}
	col := &chunkCollector{}
	w, _ := NewWriter(0, col.emit)
	for _, e := range entries {
		if err := w.Add(e.Key, e.Value); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.CompressedBytes() >= w.RawBytes()/4 {
		t.Fatalf("compression too weak: %d of %d raw", w.CompressedBytes(), w.RawBytes())
	}
	got := readAll(t, col.stream.Bytes())
	if len(got) != len(entries) {
		t.Fatal("round trip lost entries")
	}
}

func TestWriterCountsEntries(t *testing.T) {
	col := &chunkCollector{}
	w, _ := NewWriter(0, col.emit)
	for i := 0; i < 7; i++ {
		if err := w.Add([]byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if w.Entries() != 7 {
		t.Fatalf("entries = %d", w.Entries())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Add([]byte("x"), []byte("y")); err == nil {
		t.Fatal("Add after Close succeeded")
	}
	if err := w.Close(); err != nil {
		t.Fatal("double Close must be a no-op")
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte("NOTMAGIC-and-more-bytes")))
	if _, err := r.Next(); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// An image of the previous format version is refused by name, not as garbage:
// there is no second reader to fall back to.
func TestOldVersionImageRejected(t *testing.T) {
	img := writeSnapshot(t, 0, genEntries(4, 64, 6)).stream.Bytes()
	img[len(Magic)-1] = '1'
	_, err := NewReader(bytes.NewReader(img)).Next()
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("SLIMRDB1 image: err = %v, want one matching ErrVersion", err)
	}
	if _, err := NewReader(bytes.NewReader([]byte("NOTMAGIC-and-more-bytes"))).Next(); err == nil || errors.Is(err, ErrVersion) {
		t.Fatalf("foreign bytes: err = %v, want a bad-magic error that is not ErrVersion", err)
	}
}

// poolEntries draws n 4 KiB half-random/half-zero values from a pool of the
// given size, the shape workload.valuePool gives the benchmark's SETs.
func poolEntries(n, poolSize int, seed int64) []Entry {
	rng := rand.New(rand.NewSource(seed))
	pool := genEntries(poolSize, 4096, seed)
	out := make([]Entry, n)
	for i := range out {
		out[i] = Entry{Key: []byte(fmt.Sprintf("key:%08d", i)), Value: pool[rng.Intn(poolSize)].Value}
	}
	return out
}

// TestFrameIsPureFunctionOfChunk: chunk k of a multi-chunk image is byte for
// byte the frame a fresh Writer emits for chunk k's entries alone. Nothing the
// compressor learned from one chunk may reach the next — bench's sim_digest
// and every golden rest on an image being a function of its entries.
func TestFrameIsPureFunctionOfChunk(t *testing.T) {
	const chunkSize = 16 << 10
	entries := poolEntries(64, 8, 7)
	var frames [][]byte
	collect := func(chunk []byte, _ int) error {
		frames = append(frames, bytes.Clone(chunk))
		return nil
	}
	w, err := NewWriter(chunkSize, collect)
	if err != nil {
		t.Fatal(err)
	}
	var groups [][]Entry // the entries of each chunk, cut where Add flushes
	start, pending := 0, 0
	for i, e := range entries {
		if err := w.Add(e.Key, e.Value); err != nil {
			t.Fatal(err)
		}
		if pending += EntrySize(e.Key, e.Value); pending >= chunkSize || i == len(entries)-1 {
			groups = append(groups, entries[start:i+1])
			start, pending = i+1, 0
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	whole := frames[1 : len(frames)-1] // between the magic and the trailer
	if len(whole) != len(groups) || len(groups) < 8 {
		t.Fatalf("%d chunk frames for %d entry groups, want equal and at least 8", len(whole), len(groups))
	}
	for k, g := range groups {
		// A fresh Writer's image of the group: magic, one frame, trailer.
		alone := writeSnapshot(t, chunkSize, g).stream.Bytes()[len(Magic):]
		if len(alone) != len(whole[k])+12 || !bytes.HasPrefix(alone, whole[k]) {
			t.Fatalf("chunk %d differs from the frame a fresh Writer emits for its entries", k)
		}
	}
}

// TestCompressRatioOnValuePools pins the one number of the codec the model
// sees: compressed ÷ raw bytes, which sets how many pages a snapshot writes.
// The value shapes are the benchmark's (a 64-value pool for traffic, a
// 16-value pool for the preload); unique random values must be stored, not
// expanded.
func TestCompressRatioOnValuePools(t *testing.T) {
	ratio := func(entries []Entry) float64 {
		w, err := NewWriter(0, func([]byte, int) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if err := w.Add(e.Key, e.Value); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return float64(w.CompressedBytes()) / float64(w.RawBytes())
	}
	if r := ratio(poolEntries(1024, 64, 8)); r > 0.47 {
		t.Errorf("64-value pool: compress ratio %.3f, want at most 0.47", r)
	}
	if r := ratio(poolEntries(1024, 16, 8)); r > 0.35 {
		t.Errorf("16-value pool: compress ratio %.3f, want at most 0.35", r)
	}
	unique := poolEntries(256, 1, 8)
	rng := rand.New(rand.NewSource(9))
	for i := range unique {
		unique[i].Value = make([]byte, 4096)
		rng.Read(unique[i].Value)
	}
	if r := ratio(unique); r != 1 {
		t.Errorf("unique random values: compress ratio %v, want exactly 1 (every chunk stored)", r)
	}
}

func TestReaderDetectsChunkCorruption(t *testing.T) {
	entries := genEntries(100, 128, 3)
	col := writeSnapshot(t, 4<<10, entries)
	stream := col.stream.Bytes()
	// Corrupt a byte inside the first chunk's compressed payload.
	stream[len(Magic)+12+5] ^= 0xFF
	r := NewReader(bytes.NewReader(stream))
	for {
		_, err := r.Next()
		if err == io.EOF {
			t.Fatal("corruption not detected")
		}
		if err != nil {
			return // detected
		}
	}
}

func TestReaderDetectsWrongEntryCount(t *testing.T) {
	entries := genEntries(10, 64, 4)
	col := writeSnapshot(t, 0, entries)
	stream := col.stream.Bytes()
	// The trailer's last 4 bytes carry the count; corrupt them.
	stream[len(stream)-1] ^= 0x01
	r := NewReader(bytes.NewReader(stream))
	var err error
	for err == nil {
		_, err = r.Next()
	}
	if err == io.EOF {
		t.Fatal("wrong trailer count not detected")
	}
}

func TestTruncatedStream(t *testing.T) {
	entries := genEntries(100, 128, 5)
	col := writeSnapshot(t, 4<<10, entries)
	stream := col.stream.Bytes()[:col.stream.Len()/2]
	r := NewReader(bytes.NewReader(stream))
	var err error
	for err == nil {
		_, err = r.Next()
	}
	if err == io.EOF {
		t.Fatal("truncated stream read to 'clean' EOF")
	}
}

// Property: random entry sets round-trip across random chunk sizes.
func TestRoundTripProperty(t *testing.T) {
	prop := func(seed int64, chunkRaw uint16, nRaw uint8) bool {
		chunkSize := int(chunkRaw%8192) + 64
		n := int(nRaw % 64)
		rng := rand.New(rand.NewSource(seed))
		entries := make([]Entry, n)
		for i := range entries {
			k := make([]byte, rng.Intn(30)+1)
			v := make([]byte, rng.Intn(2000))
			rng.Read(k)
			rng.Read(v)
			entries[i] = Entry{k, v}
		}
		col := &chunkCollector{}
		w, err := NewWriter(chunkSize, col.emit)
		if err != nil {
			return false
		}
		for _, e := range entries {
			if err := w.Add(e.Key, e.Value); err != nil {
				return false
			}
		}
		if err := w.Close(); err != nil {
			return false
		}
		r := NewReader(bytes.NewReader(col.stream.Bytes()))
		var got []Entry
		for {
			batch, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return false
			}
			got = append(got, batch...)
		}
		if len(got) != len(entries) {
			return false
		}
		for i := range got {
			if !bytes.Equal(got[i].Key, entries[i].Key) || !bytes.Equal(got[i].Value, entries[i].Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
