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

func BenchmarkDecodeStream(b *testing.B) {
	buf := benchStream(4096)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if recs, _, corrupt := DecodeStream(buf); len(recs) != 4096 || corrupt {
			b.Fatal("stream did not decode")
		}
	}
}

// TestDecodeAllocBudget pins the recovery-side hot calls: a record is a view
// of the segment, so decoding allocates nothing per record — only the result
// slice's amortized growth — and the validate-only scan allocates nothing.
func TestDecodeAllocBudget(t *testing.T) {
	const n = 4096
	buf := benchStream(n)
	if got := testing.AllocsPerRun(10, func() { DecodeStream(buf) }); got > 24 {
		t.Errorf("DecodeStream: %.0f allocations for %d records, budget 24 (result-slice growth only)", got, n)
	}
	if got := testing.AllocsPerRun(10, func() { ValidPrefix(buf) }); got != 0 {
		t.Errorf("ValidPrefix: %.0f allocations, budget 0", got)
	}
	rec := buf[:EncodedSize([]byte("00001234"), make([]byte, 1024))]
	if got := testing.AllocsPerRun(100, func() { Decode(rec) }); got != 0 {
		t.Errorf("Decode: %.0f allocations, budget 0", got)
	}
}
