package snapshot

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"
)

func benchEntries(n int) []Entry {
	rng := rand.New(rand.NewSource(1))
	out := make([]Entry, n)
	for i := range out {
		v := make([]byte, 4096)
		rng.Read(v[:2048])
		out[i] = Entry{Key: []byte(fmt.Sprintf("key:%08d", i)), Value: v}
	}
	return out
}

func BenchmarkWriter(b *testing.B) {
	entries := benchEntries(256)
	var raw int64
	for _, e := range entries {
		raw += int64(EntrySize(e.Key, e.Value))
	}
	b.SetBytes(raw)
	for i := 0; i < b.N; i++ {
		w, err := NewWriter(0, func(chunk []byte, rawBytes int) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range entries {
			if err := w.Add(e.Key, e.Value); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchImage frames entries and reports how many payload chunks that took.
func benchImage(tb testing.TB, entries []Entry) (img []byte, chunks int) {
	tb.Helper()
	w, err := NewWriter(0, func(chunk []byte, rawBytes int) error {
		img = append(img, chunk...)
		chunks++
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range entries {
		if err := w.Add(e.Key, e.Value); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return img, chunks - 2 // the magic and the trailer are emitted too
}

// pages cuts img into size-byte runs, the shape a device read hands back.
func pages(img []byte, size int) [][]byte {
	var runs [][]byte
	for len(img) > size {
		runs = append(runs, img[:size])
		img = img[size:]
	}
	return append(runs, img)
}

func readImage(tb testing.TB, img []byte) { read(tb, NewReader(bytes.NewReader(img))) }

// read drains r, failing on anything but a clean image.
func read(tb testing.TB, r *Reader) {
	for {
		if _, err := r.Next(); err == io.EOF {
			return
		} else if err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkReader decodes one image from each run source: a byte stream, the
// image as one run, and the image as the 4 KiB pages recovery reads it as.
func BenchmarkReader(b *testing.B) {
	img, _ := benchImage(b, benchEntries(256))
	for _, bc := range []struct {
		name   string
		reader func() *Reader
	}{
		{"io.Reader", func() *Reader { return NewReader(bytes.NewReader(img)) }},
		{"one-run", func() *Reader { return NewImageReader([][]byte{img}) }},
		{"4k-pages", func() *Reader { return NewImageReader(pages(img, 4096)) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(img)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				read(b, bc.reader())
			}
		})
	}
}

// BenchmarkCodecCompress and BenchmarkCodecDecompress are the codec's own
// ledger rows, framing and CRC excluded, on one full chunk of the
// half-compressible value pool; MB/s counts raw bytes both ways.
func BenchmarkCodecCompress(b *testing.B) {
	benchCompress(b, poolChunk(1))
}

type codecShape struct {
	name string
	raw  []byte
}

// codecShapes are the pool chunk and two 64 KiB inputs that each keep one of
// compress's loops busy alone: random bytes never match, so all the time goes
// to scan's probes; a period-3 run is one match that matchLen extends across
// the whole chunk.
func codecShapes() []codecShape {
	rng := rand.New(rand.NewSource(5))
	random := make([]byte, DefaultChunkSize)
	rng.Read(random)
	return []codecShape{
		{"pool", poolChunk(1)},
		{"random", random},
		{"period-3", periodicInput(rng, 3, DefaultChunkSize)},
	}
}

// BenchmarkCodecCompressLoops prices scan and the match extension apart.
func BenchmarkCodecCompressLoops(b *testing.B) {
	for _, in := range codecShapes()[1:] { // the pool chunk is BenchmarkCodecCompress
		b.Run(in.name, func(b *testing.B) { benchCompress(b, in.raw) })
	}
}

func benchCompress(b *testing.B, raw []byte) {
	var table hashTable
	comp := make([]byte, 0, maxCompressedLen(len(raw)))
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comp = compress(comp[:0], raw, &table)
	}
	b.ReportMetric(float64(len(comp))/float64(len(raw)), "ratio")
}

func BenchmarkCodecDecompress(b *testing.B) {
	raw := poolChunk(1)
	var table hashTable
	comp := compress(nil, raw, &table)
	out := make([]byte, len(raw))
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := decompress(out, comp); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(comp))/float64(len(raw)), "ratio")
}

// TestReaderAllocBudget pins the recovery-side hot call: in steady state
// Next allocates nothing — it reuses the inflate buffer and the entry slice
// — per chunk, per entry, per refill or per straddling frame, from a byte
// stream and from 4 KiB page runs alike. The fixed cost of a Reader (the
// input buffer, the scratch's and the reused buffers' first growth) is
// measured on a short image and subtracted.
func TestReaderAllocBudget(t *testing.T) {
	entries := make([]Entry, 1024)
	for i := range entries {
		// Half-random values, so chunks compress to frames that straddle
		// pages instead of fitting several to a page.
		v := make([]byte, 4096)
		rand.New(rand.NewSource(int64(i % 16))).Read(v[:2048])
		entries[i] = Entry{Key: []byte(fmt.Sprintf("key:%08d", i)), Value: v}
	}
	short, shortChunks := benchImage(t, entries[:32])
	long, longChunks := benchImage(t, entries)
	shortPages, longPages := pages(short, 4096), pages(long, 4096)
	for _, src := range []struct {
		name        string
		short, long func()
	}{
		{"io.Reader", func() { readImage(t, short) }, func() { readImage(t, long) }},
		{"4 KiB pages", func() { read(t, NewImageReader(shortPages)) }, func() { read(t, NewImageReader(longPages)) }},
	} {
		base := testing.AllocsPerRun(5, src.short)
		full := testing.AllocsPerRun(5, src.long)
		perChunk := (full - base) / float64(longChunks-shortChunks)
		if perChunk > 0 {
			t.Errorf("%s: Reader.Next allocates %.2f per chunk in steady state (%.0f over %d chunks vs %.0f over %d), budget 0",
				src.name, perChunk, full, longChunks, base, shortChunks)
		}
	}
}
