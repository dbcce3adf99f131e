package wal

import (
	"bytes"
	"testing"
)

func BenchmarkAppendRecord4K(b *testing.B) {
	key := []byte("00001234")
	val := bytes.Repeat([]byte("v"), 4096)
	var buf []byte
	b.SetBytes(int64(EncodedSize(key, val)))
	for i := 0; i < b.N; i++ {
		buf = AppendRecord(buf[:0], OpSet, key, val)
	}
}

func BenchmarkDecode4K(b *testing.B) {
	key := []byte("00001234")
	val := bytes.Repeat([]byte("v"), 4096)
	buf := AppendRecord(nil, OpSet, key, val)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStream is n framed 1 KiB SETs, the shape of a recovered log segment.
func benchStream(n int) []byte {
	key := []byte("00001234")
	val := bytes.Repeat([]byte("v"), 1024)
	var buf []byte
	for i := 0; i < n; i++ {
		buf = AppendRecord(buf, OpSet, key, val)
	}
	return buf
}

// pages cuts buf into size-byte runs, the shape a device read hands back.
func pages(buf []byte, size int) [][]byte {
	var runs [][]byte
	for len(buf) > size {
		runs = append(runs, buf[:size])
		buf = buf[size:]
	}
	return append(runs, buf)
}

func BenchmarkDecodeSegment(b *testing.B) {
	buf := benchStream(4096)
	for _, bc := range []struct {
		name string
		runs [][]byte
	}{
		{"one-run", [][]byte{buf}},
		{"4k-pages", pages(buf, 4096)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if seg := DecodeSegment(bc.runs); seg.Count() != 4096 || seg.Corrupt {
					b.Fatal("stream did not decode")
				}
			}
		})
	}
}

// TestDecodeAllocBudget pins the recovery-side hot calls. Decoding copies
// nothing: it allocates only the frame table's amortized growth, and cutting
// the segment into 4 KiB pages adds nothing per frame, since a straddling
// frame's CRC is carried across the runs instead of gathered (a few
// allocations at most: the race detector's instrumentation moves the header
// buffer to the heap). Decode itself allocates nothing.
func TestDecodeAllocBudget(t *testing.T) {
	const n = 4096
	buf := benchStream(n)
	one := testing.AllocsPerRun(10, func() { DecodeSegment([][]byte{buf}) })
	if one > 24 {
		t.Errorf("DecodeSegment: %.0f allocations for %d records, budget 24 (the frame table's growth)", one, n)
	}
	runs := pages(buf, 4096)
	if paged := testing.AllocsPerRun(10, func() { DecodeSegment(runs) }); paged > one+4 {
		t.Errorf("DecodeSegment over %d pages: %.0f allocations, %.0f as one run: a straddling frame must cost nothing more", len(runs), paged, one)
	}
	rec := buf[:EncodedSize([]byte("00001234"), make([]byte, 1024))]
	if got := testing.AllocsPerRun(100, func() { Decode(rec) }); got != 0 {
		t.Errorf("Decode: %.0f allocations, budget 0", got)
	}
}
