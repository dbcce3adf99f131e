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

// decodeOne decodes buf as a segment of one run.
func decodeOne(buf []byte) Segment { return DecodeSegment([][]byte{buf}) }

func TestDecodeStreamCleanZeroTail(t *testing.T) {
	buf := stream(3)
	want := int64(len(buf))
	buf = append(buf, make([]byte, 100)...) // unwritten page tail
	seg := decodeOne(buf)
	if seg.Count() != 3 || seg.Prefix != want || seg.Corrupt || seg.Len != int64(len(buf)) {
		t.Fatalf("seg = %d/%d/%v len %d, want 3/%d/false len %d", seg.Count(), seg.Prefix, seg.Corrupt, seg.Len, want, len(buf))
	}
}

func TestDecodeStreamGarbageTail(t *testing.T) {
	buf := stream(3)
	want := int64(len(buf))
	buf = append(buf, 0, 0, 0xA5, 0x17) // torn-page garbage after the zeros
	seg := decodeOne(buf)
	if seg.Count() != 3 || seg.Prefix != want || !seg.Corrupt {
		t.Fatalf("seg = %d/%d/%v, want 3/%d/true", seg.Count(), seg.Prefix, seg.Corrupt, want)
	}
}

// A page of zeros after the last record is not a clean tail when anything
// non-zero follows it: the stop is still at the first bad frame, and it is
// corruption — also when the zeros and the garbage sit in different runs.
func TestDecodeStreamZeroPageThenGarbage(t *testing.T) {
	buf := stream(3)
	want := int64(len(buf))
	buf = append(buf, make([]byte, 4096)...)
	buf = append(buf, 0x5A, 0xA5, 0x01)
	for _, runs := range [][][]byte{{buf}, {buf[:want], buf[want : want+4096], buf[want+4096:]}} {
		seg := DecodeSegment(runs)
		if seg.Count() != 3 || seg.Prefix != want || !seg.Corrupt {
			t.Fatalf("%d runs: seg = %d/%d/%v, want 3/%d/true", len(runs), seg.Count(), seg.Prefix, seg.Corrupt, want)
		}
	}
}

func TestDecodeStreamStopsAtMidSegmentFlip(t *testing.T) {
	one := stream(1)
	buf := stream(4)
	buf[len(one)+5] ^= 0xFF // corrupt the second record's header
	seg := decodeOne(buf)
	if seg.Count() != 1 || seg.Prefix != int64(len(one)) || !seg.Corrupt {
		t.Fatalf("seg = %d/%d/%v, want 1/%d/true", seg.Count(), seg.Prefix, seg.Corrupt, len(one))
	}
}

// checkSegment holds seg, decoded from data, to the rules every decode must
// keep: the input is left alone, the durable prefix lies inside it, the
// accepted records are exactly the bytes at their offsets and re-encode to
// the consumed prefix (so they passed the CRC), and Corrupt is set exactly
// when a non-zero byte follows the prefix.
func checkSegment(t *testing.T, data []byte, seg Segment) {
	t.Helper()
	if seg.Len != int64(len(data)) {
		t.Fatalf("Len %d, input %d bytes", seg.Len, len(data))
	}
	if seg.Prefix < 0 || seg.Prefix > seg.Len {
		t.Fatalf("prefix %d outside buffer of %d bytes", seg.Prefix, len(data))
	}
	var re []byte
	for _, r := range seg.Records() {
		k := len(re) + headerSize
		v := k + len(r.Key)
		if v+len(r.Value) > len(data) || !bytes.Equal(r.Key, data[k:v]) || !bytes.Equal(r.Value, data[v:v+len(r.Value)]) {
			t.Fatalf("record at byte %d differs from the input at its offset", len(re))
		}
		re = AppendRecord(re, r.Op, r.Key, r.Value)
	}
	if int64(len(re)) != seg.Prefix || !bytes.Equal(re, data[:seg.Prefix]) {
		t.Fatalf("accepted records do not re-encode to the %d consumed bytes", seg.Prefix)
	}
	tail := data[seg.Prefix:]
	if want := bytes.Count(tail, []byte{0}) != len(tail); seg.Corrupt != want {
		t.Fatalf("corrupt=%v but tail non-zero=%v", seg.Corrupt, want)
	}
}

// FuzzDecode: whatever the bytes, decoding them as one run must never panic
// or write to its input, and must keep checkSegment's rules.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(stream(1))
	f.Add(stream(5))
	f.Add(append(stream(2), make([]byte, 64)...))
	f.Add(append(stream(3), 0xA5, 0x01, 0xFF))
	f.Add(stream(4)[:37])                                                             // torn mid-frame
	f.Add([]byte{recordMagic, 1, 255, 255, 255, 255, 255, 255, 255, 255, 0, 0, 0, 0}) // absurd lengths
	f.Fuzz(func(t *testing.T, data []byte) {
		before := bytes.Clone(data)
		seg := decodeOne(data)
		if !bytes.Equal(data, before) {
			t.Fatal("decoding wrote to its input")
		}
		checkSegment(t, data, seg)
	})
}

// decoded is a segment's decode as plain values: what DecodeSegment's
// Segment reports, with its records materialized.
type decoded struct {
	Len, Prefix int64
	Corrupt     bool
	Records     []Record
}

// summary materializes seg's decode.
func summary(seg *Segment) decoded {
	return decoded{Len: seg.Len, Prefix: seg.Prefix, Corrupt: seg.Corrupt, Records: seg.Records()}
}

// referenceDecode is the frame-by-frame reference DecodeSegment must match:
// Decode over the contiguous bytes until a frame fails, then a byte loop for
// the zero-tail rule.
func referenceDecode(data []byte) decoded {
	seg := decoded{Len: int64(len(data))}
	for seg.Prefix < seg.Len {
		rec, n, err := Decode(data[seg.Prefix:])
		if err != nil {
			for _, b := range data[seg.Prefix:] {
				seg.Corrupt = seg.Corrupt || b != 0
			}
			break
		}
		seg.Records = append(seg.Records, rec)
		seg.Prefix += int64(n)
	}
	return seg
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

// sameSegment reports whether a and b agree on every field, comparing
// records by content.
func sameSegment(a, b decoded) bool {
	if a.Len != b.Len || a.Prefix != b.Prefix || a.Corrupt != b.Corrupt || len(a.Records) != len(b.Records) {
		return false
	}
	for i := range a.Records {
		ra, rb := a.Records[i], b.Records[i]
		if ra.Op != rb.Op || !bytes.Equal(ra.Key, rb.Key) || !bytes.Equal(ra.Value, rb.Value) {
			return false
		}
	}
	return true
}

// FuzzDecodeSegment is the differential check on where the runs are cut:
// decoding the bytes split at arbitrary points must give what decoding them
// as one run gives, both must equal the frame-by-frame reference, every
// record must be the input at its offset, and a clone must keep every record
// after the runs are scribbled over.
func FuzzDecodeSegment(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add(stream(5), []byte{7, 0, 100, 3})
	f.Add(stream(8), []byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 13})
	f.Add(append(stream(3), make([]byte, 64)...), []byte{40, 40, 40, 40})
	f.Add(append(append(stream(3), make([]byte, 30)...), 0x5A), []byte{150, 0, 20})
	f.Add(stream(4)[:90], []byte{34, 34})
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		buf := bytes.Clone(data)
		runs := splitRuns(buf, cuts)
		split := DecodeSegment(runs)
		if !bytes.Equal(buf, data) {
			t.Fatal("decoding wrote to its runs")
		}
		got, whole := summary(&split), decodeOne(data)
		if !sameSegment(got, summary(&whole)) {
			t.Fatalf("split into %d runs: %d records, prefix %d, corrupt %v, len %d; one run: %d, %d, %v, %d",
				len(runs), split.Count(), split.Prefix, split.Corrupt, split.Len,
				whole.Count(), whole.Prefix, whole.Corrupt, whole.Len)
		}
		if !sameSegment(got, referenceDecode(data)) {
			t.Fatal("DecodeSegment differs from the frame-by-frame reference")
		}
		checkSegment(t, data, split)
		clone := split.Clone()
		for i := range buf {
			buf[i] ^= 0xFF
		}
		if !sameSegment(summary(&clone), summary(&whole)) {
			t.Fatal("scribbling over the runs changed a cloned record")
		}
	})
}

// TestCloneReadsOnlyThePrefix: Clone copies the durable prefix alone, so a
// tail released after decoding (the baseline truncates its crash-mounted log
// at Prefix, dropping the cache pages past it) cannot leak into the clone,
// whether that tail was clean or garbage.
func TestCloneReadsOnlyThePrefix(t *testing.T) {
	for _, tail := range [][]byte{make([]byte, 100), append([]byte{0x7F}, make([]byte, 99)...)} {
		buf := append(stream(4), tail...)
		seg := DecodeSegment(splitRuns(buf, []byte{50, 70}))
		want := summary(&seg)
		for i := seg.Prefix; i < seg.Len; i++ {
			buf[i] = 0xDB
		}
		if clone := seg.Clone(); !sameSegment(summary(&clone), want) {
			t.Errorf("clone after the tail was overwritten: prefix %d, corrupt %v, len %d, %d records; want %d, %v, %d, %d",
				clone.Prefix, clone.Corrupt, clone.Len, clone.Count(), want.Prefix, want.Corrupt, want.Len, len(want.Records))
		}
	}
}

// TestDecodeSegmentCopies: DecodeSegment copies nothing — its records are
// views of the runs, whether their frame lay inside one run or straddled
// several, so overwriting the runs rewrites them — and Clone copies them
// all: its records stay as decoded.
func TestDecodeSegmentCopies(t *testing.T) {
	buf := stream(6)
	want := referenceDecode(bytes.Clone(buf))
	seg := DecodeSegment(splitRuns(buf, []byte{30, 30, 100}))
	if len(want.Records) != 6 || !sameSegment(summary(&seg), want) {
		t.Fatalf("records differ from the reference:\n got %v\nwant %v", seg.Records(), want.Records)
	}
	clone := seg.Clone()
	for i := range buf {
		buf[i] = 0xFF
	}
	if !sameSegment(summary(&clone), want) {
		t.Fatalf("overwriting the runs changed the clone's records:\n got %v\nwant %v", clone.Records(), want.Records)
	}
	for i := 0; i < seg.Count(); i++ {
		if r := seg.Record(i); bytes.Equal(r.Key, want.Records[i].Key) || bytes.Equal(r.Value, want.Records[i].Value) {
			t.Fatalf("record %d kept its bytes after the runs were overwritten: it is a copy, not a view", i)
		}
	}
}
