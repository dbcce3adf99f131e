package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// buildImage serializes n entries through the real Writer and returns the
// full framed image (header, compressed chunks, trailer).
func buildImage(tb testing.TB, n, chunkSize int) []byte {
	tb.Helper()
	var img []byte
	w, err := NewWriter(chunkSize, func(chunk []byte, rawBytes int) error {
		img = append(img, chunk...)
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key-%04d", i))
		val := bytes.Repeat([]byte{byte(i)}, 16+i%32)
		if err := w.Add(key, val); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return img
}

// decodeAll drains a Reader, returning the decoded entries and the
// terminating error (io.EOF for a clean image).
func decodeAll(data []byte) ([]Entry, error) {
	r := NewReader(bytes.NewReader(data))
	var all []Entry
	for {
		ents, err := r.Next()
		all = append(all, ents...)
		if err != nil {
			return all, err
		}
	}
}

// decodeRuns is decodeAll over the image cut into runs.
func decodeRuns(runs [][]byte) ([]Entry, error) {
	r := NewImageReader(runs)
	var all []Entry
	for {
		ents, err := r.Next()
		all = append(all, ents...)
		if err != nil {
			return all, err
		}
	}
}

// splitRuns cuts data into runs: one per byte of cuts, each as long as that
// byte says (empty runs included) while data lasts, then the rest.
func splitRuns(data, cuts []byte) [][]byte {
	var runs [][]byte
	for _, c := range cuts {
		n := min(int(c), len(data))
		runs = append(runs, data[:n])
		data = data[n:]
	}
	return append(runs, data)
}

// sameEntries reports whether a and b hold the same entries, by content.
func sameEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

// FuzzDecode: whatever the bytes, the snapshot reader must never panic,
// must report clean EOF only when the trailer's declared entry count
// matches what was decoded, and must decode identically on every pass —
// recovery is replayed by the crash harnesses, so frame decoding has to be
// a pure function of the bytes. Seeds mirror internal/wal/fuzz_test.go:
// a valid image, a torn-page truncation, and targeted corruptions.
func FuzzDecode(f *testing.F) {
	valid := buildImage(f, 40, 256) // several chunks
	f.Add([]byte{})
	f.Add(valid)
	f.Add(buildImage(f, 0, 256))           // header + trailer only
	f.Add(valid[:len(valid)-7])            // torn inside the trailer
	f.Add(valid[:len(valid)/2])            // torn-page truncation mid-chunk
	f.Add(valid[:len(Magic)])              // bare magic
	f.Add(valid[:len(Magic)+3])            // truncated chunk header
	f.Add([]byte("NOTMAGIC_rest-of-data")) // wrong magic
	flip := append([]byte(nil), valid...)
	flip[len(Magic)+13] ^= 0xFF // corrupt first chunk's payload (CRC must catch)
	f.Add(flip)
	huge := append([]byte(nil), valid[:len(Magic)]...)
	huge = append(huge, 0xFF, 0xFF, 0xFF, 0x7F, 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0) // absurd lengths
	f.Add(huge)
	for _, h := range hostileImages() {
		f.Add(h.img)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			// The codec can expand a chunk 255-fold; bound the work per
			// input, not the decoder's behavior.
			t.Skip("oversized fuzz input")
		}
		ents, err := decodeAll(data)
		for _, e := range ents {
			// Entries are views of a chunk buffer the reader never reuses,
			// so they stay intact across later Next calls (the second pass
			// below compares them byte for byte).
			if e.Key == nil {
				t.Fatal("decoded entry with nil key")
			}
		}
		// Decoding is pure: a second pass over the same bytes must produce
		// byte-identical entries and the same terminating error.
		ents2, err2 := decodeAll(data)
		if fmt.Sprint(err) != fmt.Sprint(err2) || len(ents) != len(ents2) {
			t.Fatalf("decode not deterministic: %d entries/%v vs %d entries/%v",
				len(ents), err, len(ents2), err2)
		}
		for i := range ents {
			if !bytes.Equal(ents[i].Key, ents2[i].Key) || !bytes.Equal(ents[i].Value, ents2[i].Value) {
				t.Fatalf("decode not deterministic at entry %d", i)
			}
		}
		if err == io.EOF {
			// Clean EOF is a completeness claim: every added entry was
			// decoded and matched the trailer's declared count (the reader
			// errors otherwise); nothing may follow a clean decode of a
			// Writer image but trailing bytes are unreachable by Next, so
			// just re-assert the count bookkeeping is consistent.
			r := NewReader(bytes.NewReader(data))
			var n int64
			for {
				es, e := r.Next()
				n += int64(len(es))
				if e != nil {
					break
				}
			}
			if n != int64(len(ents)) || r.Entries() != n {
				t.Fatalf("entry accounting diverged: %d decoded, reader says %d", n, r.Entries())
			}
		}
	})
}

// FuzzDecodeRuns is the differential check on where the image is cut: read
// through the io.Reader source, as one run, as 4 KiB pages and cut at
// fuzz-chosen points, the same bytes must decode to the same entries and end
// in the same error. And the entries own their bytes: scribbling over the
// runs after decoding must change none of them.
func FuzzDecodeRuns(f *testing.F) {
	valid := buildImage(f, 40, 256)
	f.Add([]byte{}, []byte{})
	f.Add(valid, []byte{7, 0, 100, 3})
	f.Add(valid, []byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 13})
	f.Add(valid[:len(valid)/2], []byte{20, 20})
	paged, _ := benchImage(f, poolEntries(8, 4, 1)) // one frame over several pages
	f.Add(paged, []byte{255, 255, 255})
	stored := make([]byte, 3900) // random, so its one chunk is stored
	rand.New(rand.NewSource(1)).Read(stored)
	storedImg, _ := benchImage(f, []Entry{{Key: []byte("k"), Value: stored[:3000]}, {Key: []byte("l"), Value: stored[3000:]}})
	f.Add(storedImg, []byte{30, 200, 200, 0, 255})
	for _, h := range hostileImages() {
		f.Add(h.img, []byte{9, 12})
	}
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		if len(data) > 64<<10 {
			t.Skip("oversized fuzz input")
		}
		want, wantErr := decodeAll(data)
		for _, c := range []struct {
			name string
			runs [][]byte
		}{
			{"one run", [][]byte{bytes.Clone(data)}},
			{"4 KiB pages", pages(bytes.Clone(data), 4096)},
			{"fuzz cuts", splitRuns(bytes.Clone(data), cuts)},
		} {
			got, err := decodeRuns(c.runs)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !sameEntries(got, want) {
				t.Fatalf("%s (%d runs): %d entries/%v, io.Reader source: %d entries/%v",
					c.name, len(c.runs), len(got), err, len(want), wantErr)
			}
			for _, run := range c.runs {
				for i := range run {
					run[i] ^= 0xFF
				}
			}
			if !sameEntries(got, want) {
				t.Fatalf("%s: scribbling over the runs changed a decoded entry", c.name)
			}
		}
	})
}

// TestFuzzSeedRoundTrip pins the fuzz seeds' strongest property outside the
// fuzzer: a Writer image decodes cleanly to exactly what was written, and
// the torn-page truncation of the same image fails with a truncation error
// rather than silently succeeding.
func TestFuzzSeedRoundTrip(t *testing.T) {
	img := buildImage(t, 40, 256)
	ents, err := decodeAll(img)
	if err != io.EOF {
		t.Fatalf("valid image: err = %v, want io.EOF", err)
	}
	if len(ents) != 40 {
		t.Fatalf("decoded %d entries, want 40", len(ents))
	}
	for i, e := range ents {
		if want := fmt.Sprintf("key-%04d", i); string(e.Key) != want {
			t.Fatalf("entry %d key = %q, want %q", i, e.Key, want)
		}
	}
	if _, err := decodeAll(img[:len(img)/2]); err == nil || err == io.EOF {
		t.Fatalf("torn image: err = %v, want decode failure", err)
	}
}

// frameImage frames comp as a one-chunk image whose header declares the given
// lengths; the CRC is always honest, so the length checks and the decoder (not
// the checksum) are what a hostile chunk runs into.
func frameImage(comp []byte, rawLen, compLen uint32) []byte {
	img := append([]byte(nil), Magic...)
	img = binary.LittleEndian.AppendUint32(img, rawLen)
	img = binary.LittleEndian.AppendUint32(img, compLen)
	img = binary.LittleEndian.AppendUint32(img, crc32.ChecksumIEEE(comp))
	return append(img, comp...)
}

// chunkImage is frameImage over payload's compressed stream.
func chunkImage(payload []byte, rawLen, compLen uint32) []byte {
	var table hashTable
	return frameImage(compress(nil, payload, &table), rawLen, compLen)
}

type hostileImage struct {
	name    string
	img     []byte
	wantErr string // substring of the error Next must return
}

// hostileImages are headers that lie about a length the reader sizes a
// buffer from, and streams that point the decoder outside its buffers. Each
// must fail cleanly and cheaply.
func hostileImages() []hostileImage {
	entry := appendEntry(nil, []byte("k"), bytes.Repeat([]byte("v"), 991)) // 1000 raw bytes
	n := uint32(len(chunkImage(entry, 0, 0)) - len(Magic) - 12)
	// stream frames a hand-written stream with honest lengths: its compressed
	// size, and a raw size large enough that only the named fault stops it.
	stream := func(comp ...byte) []byte { return frameImage(comp, 64, uint32(len(comp))) }
	stored := bytes.Repeat([]byte("s"), 100)
	return []hostileImage{
		{"raw length 4 GiB over a small body", chunkImage(entry, 0xFFFFFFFF, n), "more than"},
		{"compressed length 4 GiB over a short image", chunkImage(entry, 1000, 0xFFFFFFFF), "truncated image"},
		{"stream inflates past the declared length", chunkImage(entry, 500, n), "overruns the declared 500 raw bytes"},
		{"stream ends before the declared length", chunkImage(entry, 2000, n), "stream ends at 1000 of 2000"},
		{"compressed length above the raw length", frameImage(stored, 99, 100), "100 compressed bytes for 99 raw"},
		{"offset 0", stream(0x40, 'a', 'b', 'c', 'd', 0, 0, 0x00), "offset 0 with 4 bytes produced"},
		{"offset one past the output produced", stream(0x40, 'a', 'b', 'c', 'd', 5, 0, 0x00), "offset 5 with 4 bytes produced"},
		{"match length continued to the end of input", stream(0x1F, 'a', 1, 0, 255, 255), "length bytes run off the input"},
		{"literal length larger than the remaining input", stream(0xF0, 20, 'a', 'b', 'c'), "literal run of 35 runs off the input"},
		{"stored chunk longer than the image", frameImage(stored, 4000, 4000), "truncated image"},
	}
}

// TestHostileLengthsFailCheaply: a declared length is untrusted input. The
// reader must reject each lie with the right error and without sizing an
// allocation from it — the budget is a constant (one input buffer, one
// chunk of at most 255 times the bytes present), nowhere near the gigabytes
// the headers claim.
func TestHostileLengthsFailCheaply(t *testing.T) {
	const budget = 256 << 10
	for _, h := range hostileImages() {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		ents, err := decodeAll(h.img)
		runtime.ReadMemStats(&ms1)
		if err == nil || err == io.EOF || !strings.Contains(err.Error(), h.wantErr) {
			t.Errorf("%s: err = %v, want one containing %q", h.name, err, h.wantErr)
		}
		if len(ents) != 0 {
			t.Errorf("%s: %d entries decoded from a lying chunk", h.name, len(ents))
		}
		if got := ms1.TotalAlloc - ms0.TotalAlloc; got > budget {
			t.Errorf("%s: allocated %d bytes decoding a %d-byte image, budget %d", h.name, got, len(h.img), budget)
		}
	}
}
