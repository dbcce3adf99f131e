package snapshot

import (
	"bytes"
	"math/rand"
	"testing"
)

// mixedInput builds n bytes out of the shapes the codec has a case for:
// random runs (literals, skip acceleration), zero runs, copies of earlier
// content at any distance (matches, and offsets past 65535 it must refuse),
// and period-1..8 patterns (matches that overlap their own destination).
func mixedInput(rng *rand.Rand, n int) []byte {
	out := make([]byte, 0, n)
	for len(out) < n {
		run := min(1+rng.Intn(3000), n-len(out))
		switch kind := rng.Intn(4); {
		case kind == 0:
			seg := make([]byte, run)
			rng.Read(seg)
			out = append(out, seg...)
		case kind == 1:
			out = append(out, make([]byte, run)...)
		case kind == 2 && len(out) > 0:
			from := rng.Intn(len(out))
			out = append(out, out[from:min(from+run, len(out))]...)
		default:
			period := make([]byte, 1+rng.Intn(8))
			rng.Read(period)
			for i := 0; i < run; i++ {
				out = append(out, period[i%len(period)])
			}
		}
	}
	return out
}

// checkCodecRoundTrip is the codec's contract: decompress inverts compress
// into a buffer of exactly the input's length, and the stream stays inside
// the bound flushChunk sizes its frame from.
func checkCodecRoundTrip(t *testing.T, x []byte) {
	t.Helper()
	var table hashTable
	comp := compress(nil, x, &table)
	if len(comp) > maxCompressedLen(len(x)) {
		t.Fatalf("%d bytes compressed to %d, bound %d", len(x), len(comp), maxCompressedLen(len(x)))
	}
	got := make([]byte, len(x))
	if err := decompress(got, comp); err != nil {
		t.Fatalf("decompress of a %d-byte input's own stream: %v", len(x), err)
	}
	if !bytes.Equal(got, x) {
		t.Fatalf("%d-byte input did not round-trip", len(x))
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Every length near the 4-byte match floor, then lengths up to one
	// entry past a full 64 KiB chunk, which is how large pending gets.
	lengths := []int{65535, 65536, 65537, 70000}
	for n := 0; n <= 24; n++ {
		lengths = append(lengths, n)
	}
	for i := 0; i < 60; i++ {
		lengths = append(lengths, rng.Intn(70001))
	}
	for _, n := range lengths {
		checkCodecRoundTrip(t, mixedInput(rng, n))
	}

	// A repeat further back than an offset can say must not become a match.
	far := make([]byte, 70000)
	rng.Read(far)
	copy(far[67000:], far[:2048])
	checkCodecRoundTrip(t, far)

	// Self-overlapping matches a whole chunk long, at every period up to 8:
	// mixedInput's periodic runs stop at 3000 bytes, and random fuzz inputs
	// rarely grow a run past a few hundred.
	for period := 1; period <= 8; period++ {
		x := make([]byte, DefaultChunkSize)
		rng.Read(x[:period])
		for i := period; i < len(x); i++ {
			x[i] = x[i-period]
		}
		checkCodecRoundTrip(t, x)
	}
}

// All-random input cannot shrink: the stream is longer than the input, which
// is the case flushChunk stores instead.
func TestCodecRandomInputDoesNotShrink(t *testing.T) {
	x := make([]byte, DefaultChunkSize)
	rand.New(rand.NewSource(2)).Read(x)
	var table hashTable
	if comp := compress(nil, x, &table); len(comp) < len(x) {
		t.Fatalf("%d random bytes compressed to %d", len(x), len(comp))
	}
	checkCodecRoundTrip(t, x)
}

// FuzzCodecRoundTrip: any bytes survive compress→decompress, and the same
// bytes read as a stream (with a declared length taken from the input too)
// decode or fail without a panic.
func FuzzCodecRoundTrip(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	f.Add([]byte{})
	f.Add([]byte("abcd"))
	f.Add(bytes.Repeat([]byte{0}, 300))
	f.Add(bytes.Repeat([]byte("abc"), 100))
	f.Add(mixedInput(rng, 2000))
	f.Add([]byte{0x1F, 'x', 1, 0, 255, 255, 3, 0x00}) // a match with a continued length
	f.Fuzz(func(t *testing.T, x []byte) {
		checkCodecRoundTrip(t, x)
		if len(x) > 0 {
			// Only the absence of a panic is asserted here.
			_ = decompress(make([]byte, int(x[0])*len(x)/4), x[1:])
		}
	})
}
