package wal

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/slimio/slimio/internal/bufpool"
)

func TestRecordRoundTrip(t *testing.T) {
	buf := AppendRecord(nil, OpSet, []byte("key1"), []byte("value-1"))
	rec, n, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d", n, len(buf))
	}
	if rec.Op != OpSet || string(rec.Key) != "key1" || string(rec.Value) != "value-1" {
		t.Fatalf("rec = %+v", rec)
	}
}

func TestEncodedSizeMatches(t *testing.T) {
	key, val := []byte("abc"), []byte("defgh")
	buf := AppendRecord(nil, OpSet, key, val)
	if len(buf) != EncodedSize(key, val) {
		t.Fatalf("encoded %d, EncodedSize %d", len(buf), EncodedSize(key, val))
	}
}

func TestDecodeEmptyAndShort(t *testing.T) {
	if _, _, err := Decode(nil); err != ErrTornRecord {
		t.Fatal("empty buffer must be torn")
	}
	buf := AppendRecord(nil, OpSet, []byte("k"), []byte("v"))
	if _, _, err := Decode(buf[:len(buf)-1]); err != ErrTornRecord {
		t.Fatal("truncated record must be torn")
	}
}

func TestDecodeCorruptPayload(t *testing.T) {
	buf := AppendRecord(nil, OpSet, []byte("k"), []byte("value"))
	buf[len(buf)-1] ^= 0xFF
	if _, _, err := Decode(buf); err != ErrTornRecord {
		t.Fatal("corrupt payload must fail CRC")
	}
}

func TestDecodeBadMagic(t *testing.T) {
	buf := AppendRecord(nil, OpSet, []byte("k"), []byte("v"))
	buf[0] = 0
	if _, _, err := Decode(buf); err != ErrTornRecord {
		t.Fatal("bad magic must be torn")
	}
}

func TestDecodeAllStream(t *testing.T) {
	var buf []byte
	for i := 0; i < 20; i++ {
		buf = AppendRecord(buf, OpSet, []byte{byte('a' + i)}, bytes.Repeat([]byte{byte(i)}, i*7))
	}
	seg := decodeOne(buf)
	if seg.Corrupt {
		t.Fatal("clean stream reported corrupt")
	}
	recs := seg.Records()
	if len(recs) != 20 {
		t.Fatalf("decoded %d records, want 20", len(recs))
	}
	for i, r := range recs {
		if r.Key[0] != byte('a'+i) {
			t.Fatalf("record %d out of order", i)
		}
	}
}

func TestDecodeAllTornTail(t *testing.T) {
	var buf []byte
	for i := 0; i < 5; i++ {
		buf = AppendRecord(buf, OpSet, []byte("k"), []byte("vvvv"))
	}
	whole := len(buf)
	buf = AppendRecord(buf, OpSet, []byte("k"), []byte("torn-me"))
	buf = buf[:whole+7] // tear the last record
	seg := decodeOne(buf)
	if seg.Count() != 5 {
		t.Fatalf("decoded %d, want the 5 whole records", seg.Count())
	}
	if !seg.Corrupt {
		t.Fatal("torn tail not reported")
	}
}

func TestDecodeAllZeroPadding(t *testing.T) {
	buf := AppendRecord(nil, OpSet, []byte("k"), []byte("v"))
	buf = append(buf, make([]byte, 100)...) // unwritten page tail
	seg := decodeOne(buf)
	if seg.Count() != 1 || seg.Corrupt {
		t.Fatalf("recs=%d corrupt=%v, want 1/false", seg.Count(), seg.Corrupt)
	}
}

func TestBuffer(t *testing.T) {
	pool := bufpool.New(4096)
	b := NewBuffer(pool)
	b.Append(OpSet, []byte("a"), []byte("1"))
	b.Append(OpSet, []byte("b"), []byte("2"))
	if b.Records() != 2 || b.Len() == 0 {
		t.Fatalf("records=%d len=%d", b.Records(), b.Len())
	}
	total := b.AppendedTotal()
	if total != int64(b.Len()) {
		t.Fatalf("appended %d != len %d", total, b.Len())
	}
	data := b.Drain()
	if b.Len() != 0 || b.Records() != 0 {
		t.Fatal("drain did not clear")
	}
	if b.AppendedTotal() != total {
		t.Fatal("drain must not reset lifetime counter")
	}
	spans := make([][]byte, len(data.Segs))
	for i := range spans {
		spans[i] = data.Span(i)
	}
	if seg := DecodeSegment(spans); seg.Count() != 2 || seg.Corrupt {
		t.Fatalf("drained chain decodes %d records, corrupt %v", seg.Count(), seg.Corrupt)
	}
	data.Release()
	b.Append(OpSet, []byte("c"), []byte("3"))
	b.Reset()
	if b.AppendedTotal() != 0 || b.Len() != 0 {
		t.Fatal("reset must clear everything")
	}
	b.Close()
	if n := pool.InFlight(); n != 0 {
		t.Fatalf("%d segments still in flight after close", n)
	}
}

// Property: any sequence of records survives encode/decode, and any single
// bit flip in the stream is detected (no record decodes with wrong content).
func TestRecordProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%16) + 1
		var buf []byte
		var keys, vals [][]byte
		for i := 0; i < count; i++ {
			k := make([]byte, rng.Intn(20)+1)
			v := make([]byte, rng.Intn(200))
			rng.Read(k)
			rng.Read(v)
			keys, vals = append(keys, k), append(vals, v)
			buf = AppendRecord(buf, OpSet, k, v)
		}
		seg := decodeOne(buf)
		recs := seg.Records()
		if seg.Corrupt || len(recs) != count {
			return false
		}
		for i := range recs {
			if !bytes.Equal(recs[i].Key, keys[i]) || !bytes.Equal(recs[i].Value, vals[i]) {
				return false
			}
		}
		// Flip one random bit: decoding must not produce count intact
		// records with altered content silently.
		flipped := append([]byte(nil), buf...)
		pos := rng.Intn(len(flipped))
		flipped[pos] ^= 1 << uint(rng.Intn(8))
		seg2 := decodeOne(flipped)
		recs2 := seg2.Records()
		if !seg2.Corrupt && len(recs2) == count {
			for i := range recs2 {
				if !bytes.Equal(recs2[i].Key, keys[i]) || !bytes.Equal(recs2[i].Value, vals[i]) {
					return false // undetected corruption
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Regression for the old contiguous Buffer's Drain aliasing hazard: Drain
// handed callers a view of the buffer's internal slice, so a later append
// could grow-and-move (or rewrite) bytes a device write was still reading.
// The segment chain forbids that by construction — bytes below the drained
// End are immutable while the producer keeps encoding into the shared tail
// segment, so the in-flight view must stay bit-identical no matter how much
// is appended afterwards.
func TestDrainImmutableWhileProducerAppends(t *testing.T) {
	pool := bufpool.New(128)
	b := NewBuffer(pool)
	b.Append(OpSet, []byte("key-a"), bytes.Repeat([]byte("1"), 40))
	chain := b.Drain()
	want := flatten(chain) // what an in-flight device write would DMA
	// Producer keeps going: fills the shared tail segment, crosses many
	// segment boundaries, drains and releases again.
	for i := 0; i < 32; i++ {
		b.Append(OpSet, []byte("key-b"), bytes.Repeat([]byte("2"), 60))
	}
	chain2 := b.Drain()
	if got := flatten(chain); !bytes.Equal(got, want) {
		t.Fatal("later appends mutated a drained, in-flight chain")
	}
	chain2.Release()
	chain.Release()
	b.Close()
	if n := pool.InFlight(); n != 0 {
		t.Fatalf("%d segments still in flight after teardown", n)
	}
}

// Regression for recycle-after-drain: once the producer releases its share
// of a drained chain, the pool must not hand those segments to new writers
// while the device still holds references — recycling is gated by the
// reference counts, not by the producer's write position.
func TestDrainRecycleGatedByDeviceRefs(t *testing.T) {
	pool := bufpool.New(128)
	b := NewBuffer(pool)
	b.Append(OpSet, []byte("k"), bytes.Repeat([]byte("x"), 300)) // spans segments
	chain := b.Drain()
	want := flatten(chain)
	// The device retains every segment (as nand.Program does on store)
	// before the producer releases and recycles its own bookkeeping.
	view := chain // device-side descriptor copy
	for _, s := range view.Segs {
		s.Retain()
	}
	chain.Release()
	b.Close()
	// Hammer the pool with a fresh producer: if a device-held segment were
	// recycled, these appends would overwrite its bytes.
	b2 := NewBuffer(pool)
	for i := 0; i < 16; i++ {
		b2.Append(OpSet, []byte("z"), bytes.Repeat([]byte("9"), 100))
	}
	c2 := b2.Drain()
	if got := flatten(view); !bytes.Equal(got, want) {
		t.Fatal("pool recycled device-held segments into new writes")
	}
	c2.Release()
	b2.Close()
	view.Release()
	if n := pool.InFlight(); n != 0 {
		t.Fatalf("%d segments still in flight after teardown", n)
	}
}

// flatten copies the chain's payload into one contiguous buffer.
func flatten(c Chain) []byte {
	var b []byte
	for i := range c.Segs {
		b = append(b, c.Span(i)...)
	}
	return b
}
