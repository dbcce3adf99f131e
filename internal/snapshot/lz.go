package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// The chunk codec is a byte-oriented LZ77 in the LZ4 block layout. A stream
// is a run of sequences:
//
//	token    1 byte: literal length in the high nibble, match length - 4 in
//	         the low one; a nibble of 15 is continued by bytes that each add
//	         their value, the first one below 255 ending the length
//	literals that many bytes, verbatim
//	offset   2 bytes little-endian, 1..65535, counted back from the output end
//
// The match copies from the output produced so far and may overlap its own
// destination (offset 1 repeats one byte). The last sequence stops after its
// literals; input ending anywhere else is an error.
const (
	minMatch    = 4
	maxOffset   = 1<<16 - 1
	hashLog     = 14
	skipTrigger = 6 // the scan step grows by one per 2^skipTrigger misses
)

// hashTable maps the hash of a 4-byte prefix to the last position it was seen
// at. compress clears it first, so a stream depends on nothing but src.
type hashTable [1 << hashLog]int32

// load32 reads the four bytes at b[i:]. The full slice expression has a
// constant capacity of four, so unlike b[i:] it needs no masking of the
// pointer against an empty remainder: fewer instructions on the path from a
// table slot to the candidate's bytes in scan.
func load32(b []byte, i int) uint32 { return binary.LittleEndian.Uint32(b[i : i+4 : i+4]) }

func hash4(u uint32) uint32 { return (u * 2654435761) >> (32 - hashLog) }

// maxCompressedLen bounds len(compress(nil, src)) for len(src) == n: all
// literals, one continuation byte per 255 of them, and a few tokens.
func maxCompressedLen(n int) int { return n + n/255 + 16 }

// appendLen appends the continuation bytes of a length whose nibble
// saturated, and nothing for a length the nibble holds.
func appendLen(dst []byte, n int) []byte {
	if n < 15 {
		return dst
	}
	for n -= 15; n >= 255; n -= 255 {
		dst = append(dst, 255)
	}
	return append(dst, byte(n))
}

// appendSequence emits lits followed by a match of mlen bytes at offset, or,
// with mlen 0, the closing literals-only sequence.
func appendSequence(dst, lits []byte, offset, mlen int) []byte {
	ml := max(mlen-minMatch, 0)
	dst = append(dst, byte(min(len(lits), 15)<<4|min(ml, 15)))
	dst = append(appendLen(dst, len(lits)), lits...)
	if mlen == 0 {
		return dst
	}
	return appendLen(append(dst, byte(offset), byte(offset>>8)), ml)
}

// matchLen counts the leading bytes a shares with b, which is at least as
// long: 64 at a time while whole blocks agree (a string compare of two
// subslices is a vectorised memequal and allocates nothing), then eight at a
// time to find the first differing byte.
func matchLen(a, b []byte) int {
	n := 0
	for len(a)-n >= 64 && string(a[n:n+64]) == string(b[n:n+64]) {
		n += 64
	}
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

// scan probes src from i on for the first position whose 4-byte prefix
// repeats at a candidate within maxOffset, recording every probed position in
// table. It returns that position and its candidate, or len(src) when none is
// left. It is the loop an incompressible run spends its time in, kept apart
// from the match bookkeeping so that what it keeps live fits in registers.
func scan(src []byte, table *hashTable, i int) (int, int) {
	// Step faster the longer nothing matches, so an incompressible run costs
	// a fraction of a probe per byte. The step restarts at one after every
	// match, which is where the caller calls again.
	for misses := 0; i+minMatch <= len(src); misses++ {
		u := load32(src, i)
		h := hash4(u)
		cand := int(table[h])
		table[h] = int32(i)
		// A cleared slot reads as position 0, which is as good a candidate
		// as any other: it is accepted only if its four bytes match.
		if off := i - cand; off > 0 && off <= maxOffset && load32(src, cand) == u {
			return i, cand
		}
		i += 1 + misses>>skipTrigger
	}
	return len(src), 0
}

// compress appends the stream for src to dst. The result may be longer than
// src (never by more than maxCompressedLen allows); the caller stores such a
// chunk verbatim instead.
func compress(dst, src []byte, table *hashTable) []byte {
	*table = hashTable{}
	anchor := 0 // src[anchor:i] are literals not yet emitted
	for i := 0; ; {
		var cand int
		if i, cand = scan(src, table, i); i == len(src) {
			break
		}
		for i > anchor && cand > 0 && src[i-1] == src[cand-1] {
			i--
			cand--
		}
		mlen := minMatch + matchLen(src[i+minMatch:], src[cand+minMatch:])
		dst = appendSequence(dst, src[anchor:i], i-cand, mlen)
		i += mlen
		anchor = i
		if i+minMatch <= len(src) {
			table[hash4(load32(src, i-2))] = int32(i - 2)
		}
	}
	return appendSequence(dst, src[anchor:], 0, 0)
}

// readLen completes a length from its nibble n: n itself, or, saturated, n
// plus the continuation bytes at src[s:]. It returns the position after them.
func readLen(src []byte, s, n int) (int, int, error) {
	if n < 15 {
		return n, s, nil
	}
	for s < len(src) {
		b := src[s]
		s++
		n += int(b)
		if b != 255 {
			return n, s, nil
		}
	}
	return 0, 0, errors.New("snapshot: decompress: length bytes run off the input")
}

// decompress decodes src into dst, which is the declared raw length: the
// stream must fill it exactly. Every index is checked against both buffers
// first, so hostile input gets an error and nothing outside dst is written.
func decompress(dst, src []byte) error {
	var (
		d, s   int // bytes of dst produced, bytes of src consumed
		ll, ml int
		err    error
	)
	for s < len(src) {
		tok := src[s]
		if ll, s, err = readLen(src, s+1, int(tok>>4)); err != nil {
			return err
		}
		if ll > len(src)-s {
			return fmt.Errorf("snapshot: decompress: literal run of %d runs off the input", ll)
		}
		if ll > len(dst)-d {
			return fmt.Errorf("snapshot: decompress: sequence overruns the declared %d raw bytes", len(dst))
		}
		copy(dst[d:], src[s:s+ll])
		d += ll
		s += ll
		if s == len(src) {
			if d != len(dst) {
				return fmt.Errorf("snapshot: decompress: stream ends at %d of %d declared raw bytes", d, len(dst))
			}
			return nil
		}

		if len(src)-s < 2 {
			return errors.New("snapshot: decompress: offset runs off the input")
		}
		off := int(src[s]) | int(src[s+1])<<8
		if off == 0 || off > d {
			return fmt.Errorf("snapshot: decompress: offset %d with %d bytes produced", off, d)
		}
		if ml, s, err = readLen(src, s+2, int(tok&15)); err != nil {
			return err
		}
		if ml += minMatch; ml > len(dst)-d {
			return fmt.Errorf("snapshot: decompress: sequence overruns the declared %d raw bytes", len(dst))
		}
		// dst[start:d] is periodic in off, so when the match overlaps its
		// destination each pass copies twice what the one before did.
		for start, end := d-off, d+ml; d < end; {
			d += copy(dst[d:end], dst[start:d])
		}
	}
	return errors.New("snapshot: decompress: input ends without its closing literals")
}
