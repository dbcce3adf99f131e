package wal

import (
	"bytes"
	"testing"
)

func stream(n int) []byte {
	var buf []byte
	for i := 0; i < n; i++ {
		buf = AppendRecord(buf, OpSet, []byte{byte('a' + i)}, bytes.Repeat([]byte{byte(i + 1)}, 20+i*7))
	}
	return buf
}

func TestDecodeStreamCleanZeroTail(t *testing.T) {
	buf := stream(3)
	want := int64(len(buf))
	buf = append(buf, make([]byte, 100)...) // unwritten page tail
	recs, prefix, corrupt := DecodeStream(buf)
	if len(recs) != 3 || prefix != want || corrupt {
		t.Fatalf("recs=%d prefix=%d corrupt=%v, want 3/%d/false", len(recs), prefix, corrupt, want)
	}
}

func TestDecodeStreamGarbageTail(t *testing.T) {
	buf := stream(3)
	want := int64(len(buf))
	buf = append(buf, 0, 0, 0xA5, 0x17) // torn-page garbage after the zeros
	recs, prefix, corrupt := DecodeStream(buf)
	if len(recs) != 3 || prefix != want || !corrupt {
		t.Fatalf("recs=%d prefix=%d corrupt=%v, want 3/%d/true", len(recs), prefix, corrupt, want)
	}
}

// A page of zeros after the last record is not a clean tail when anything
// non-zero follows it: the stop is still at the first bad frame, and it is
// corruption.
func TestDecodeStreamZeroPageThenGarbage(t *testing.T) {
	buf := stream(3)
	want := int64(len(buf))
	buf = append(buf, make([]byte, 4096)...)
	buf = append(buf, 0x5A, 0xA5, 0x01)
	recs, prefix, corrupt := DecodeStream(buf)
	if len(recs) != 3 || prefix != want || !corrupt {
		t.Fatalf("recs=%d prefix=%d corrupt=%v, want 3/%d/true", len(recs), prefix, corrupt, want)
	}
	if p, c := ValidPrefix(buf); p != want || !c {
		t.Fatalf("ValidPrefix = %d/%v, want %d/true", p, c, want)
	}
}

func TestDecodeStreamStopsAtMidSegmentFlip(t *testing.T) {
	one := stream(1)
	buf := stream(4)
	buf[len(one)+5] ^= 0xFF // corrupt the second record's header
	recs, prefix, corrupt := DecodeStream(buf)
	if len(recs) != 1 || prefix != int64(len(one)) || !corrupt {
		t.Fatalf("recs=%d prefix=%d corrupt=%v, want 1/%d/true", len(recs), prefix, corrupt, len(one))
	}
}

// FuzzDecode: whatever the bytes, the decoder must never panic, must accept
// only frames that re-encode to the exact bytes it consumed (CRC-clean), and
// must report a durable prefix inside the buffer with an honest corrupt flag.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(stream(1))
	f.Add(stream(5))
	f.Add(append(stream(2), make([]byte, 64)...))
	f.Add(append(stream(3), 0xA5, 0x01, 0xFF))
	f.Add(stream(4)[:37])                                                             // torn mid-frame
	f.Add([]byte{recordMagic, 1, 255, 255, 255, 255, 255, 255, 255, 255, 0, 0, 0, 0}) // absurd lengths
	f.Fuzz(func(t *testing.T, data []byte) {
		before := append([]byte(nil), data...)
		recs, prefix, corrupt := DecodeStream(data)
		if !bytes.Equal(data, before) {
			t.Fatal("decoding wrote to its input")
		}
		if prefix < 0 || prefix > int64(len(data)) {
			t.Fatalf("prefix %d outside buffer of %d bytes", prefix, len(data))
		}
		var re []byte
		for _, r := range recs {
			// A record is a view of the bytes at its offset, nothing else.
			k := len(re) + headerSize
			v := k + len(r.Key)
			if v+len(r.Value) > len(data) || !bytes.Equal(r.Key, data[k:v]) || !bytes.Equal(r.Value, data[v:v+len(r.Value)]) {
				t.Fatalf("record at byte %d differs from the input at its offset", len(re))
			}
			re = AppendRecord(re, r.Op, r.Key, r.Value)
		}
		if int64(len(re)) != prefix || !bytes.Equal(re, data[:prefix]) {
			t.Fatalf("accepted records do not re-encode to the %d consumed bytes", prefix)
		}
		wantCorrupt := false
		for _, b := range data[prefix:] {
			if b != 0 {
				wantCorrupt = true
				break
			}
		}
		if corrupt != wantCorrupt {
			t.Fatalf("corrupt=%v but tail non-zero=%v", corrupt, wantCorrupt)
		}
		// DecodeAll and the validate-only scan must agree with DecodeStream.
		recs2, truncated := DecodeAll(data)
		if len(recs2) != len(recs) || truncated != corrupt {
			t.Fatalf("DecodeAll diverges from DecodeStream")
		}
		if p, c := ValidPrefix(data); p != prefix || c != corrupt {
			t.Fatalf("ValidPrefix = %d/%v, DecodeStream = %d/%v", p, c, prefix, corrupt)
		}
	})
}
