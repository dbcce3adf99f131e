package snapshot

import (
	"bytes"
	"encoding/binary"
	"math/bits"
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

	checkCodecRoundTrip(t, farInput(rng))
	for period := 1; period <= 8; period++ {
		checkCodecRoundTrip(t, periodicInput(rng, period, DefaultChunkSize))
	}
}

// farInput repeats 2 KiB of random bytes 67 000 bytes back, further than an
// offset can say: the repeat must not become a match.
func farInput(rng *rand.Rand) []byte {
	far := make([]byte, 70000)
	rng.Read(far)
	copy(far[67000:], far[:2048])
	return far
}

// periodicInput is n bytes of one random period: a self-overlapping match as
// long as the input. mixedInput's periodic runs stop at 3000 bytes, and
// random fuzz inputs rarely grow a run past a few hundred.
func periodicInput(rng *rand.Rand, period, n int) []byte {
	x := make([]byte, n)
	rng.Read(x[:period])
	for i := period; i < len(x); i++ {
		x[i] = x[i-period]
	}
	return x
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

// FuzzCodecRoundTrip: any bytes survive compress→decompress, compress emits
// the stream refCompress does for them, and the same bytes read as a stream
// (with a declared length taken from the input too) decode or fail without a
// panic.
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
		var table hashTable
		var ref refHashTable
		if !bytes.Equal(compress(nil, x, &table), refCompress(nil, x, &ref)) {
			t.Fatalf("%d-byte input: compress and refCompress emit different streams", len(x))
		}
		if len(x) > 0 {
			// Only the absence of a panic is asserted here.
			_ = decompress(make([]byte, int(x[0])*len(x)/4), x[1:])
		}
	})
}

// refHashTable and refCompress are the compressor before its probe loop moved
// into scan and matchLen learned to compare 64-byte blocks, copied verbatim
// (refMatchLen is that matchLen; load32, hash4 and appendSequence are shared,
// as their results did not change). A frame's bytes are model-visible — the
// compressed size sets how many pages a snapshot writes, so every sim_digest
// and exp golden rests on them — and compress must keep emitting exactly
// this stream.
type refHashTable [1 << hashLog]int32

func refMatchLen(a, b []byte) int {
	n := 0
	for ; len(a)-n >= 8; n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for n < len(a) && a[n] == b[n] {
		n++
	}
	return n
}

func refCompress(dst, src []byte, table *refHashTable) []byte {
	*table = refHashTable{}
	anchor := 0 // src[anchor:i] are literals not yet emitted
	misses := 0
	for i := 0; i+minMatch <= len(src); {
		u := load32(src, i)
		h := hash4(u)
		cand := int(table[h])
		table[h] = int32(i)
		// A cleared slot reads as position 0, which is as good a candidate
		// as any other: it is accepted only if its four bytes match.
		if off := i - cand; off <= 0 || off > maxOffset || load32(src, cand) != u {
			// Step faster the longer nothing matches, so an incompressible
			// run costs a fraction of a probe per byte.
			i += 1 + misses>>skipTrigger
			misses++
			continue
		}
		misses = 0
		for i > anchor && cand > 0 && src[i-1] == src[cand-1] {
			i--
			cand--
		}
		mlen := minMatch + refMatchLen(src[i+minMatch:], src[cand+minMatch:])
		dst = appendSequence(dst, src[anchor:i], i-cand, mlen)
		i += mlen
		anchor = i
		if i+minMatch <= len(src) {
			table[hash4(load32(src, i-2))] = int32(i - 2)
		}
	}
	return appendSequence(dst, src[anchor:], 0, 0)
}

// poolChunk is one full chunk of 4 KiB half-random values drawn from a pool
// of 64, framed as the Writer holds it in pending: the shape snapshots
// compress, and BenchmarkCodecCompress's input at seed 1.
func poolChunk(seed int64) []byte {
	var raw []byte
	for _, e := range poolEntries(DefaultChunkSize/4096, 64, seed) {
		raw = appendEntry(raw, e.Key, e.Value)
	}
	return raw
}

// TestCompressMatchesReference holds compress to refCompress byte for byte on
// every input shape the codec tests use. One hashTable serves every input, so
// a compress that left positions from the input before in its table would
// find matches the reference cannot, and diverge.
func TestCompressMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var inputs [][]byte
	for seed := int64(1); seed <= 60; seed++ {
		inputs = append(inputs, poolChunk(seed))
	}
	for n := 0; n <= 24; n++ {
		inputs = append(inputs, mixedInput(rng, n))
	}
	for i := 0; i < 100; i++ {
		inputs = append(inputs, mixedInput(rng, rng.Intn(70001)))
	}
	inputs = append(inputs, farInput(rng))
	for period := 1; period <= 8; period++ {
		inputs = append(inputs, periodicInput(rng, period, DefaultChunkSize))
	}

	var table hashTable
	var ref refHashTable
	var got, want []byte
	for k, x := range inputs {
		got = compress(got[:0], x, &table)
		want = refCompress(want[:0], x, &ref)
		if !bytes.Equal(got, want) {
			t.Fatalf("input %d (%d bytes): compress emitted %d bytes, refCompress %d, first difference at %d",
				k, len(x), len(got), len(want), firstDiff(got, want))
		}
	}
}

func firstDiff(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// TestCompressAllocs: compress into a dst of maxCompressedLen capacity
// allocates nothing, on the pool chunk and on the two inputs that each
// exercise one loop alone.
func TestCompressAllocs(t *testing.T) {
	var table hashTable
	for _, in := range codecShapes() {
		dst := make([]byte, 0, maxCompressedLen(len(in.raw)))
		if n := testing.AllocsPerRun(10, func() { dst = compress(dst[:0], in.raw, &table) }); n != 0 {
			t.Errorf("%s: compress allocates %.1f times per call, want 0", in.name, n)
		}
	}
}
