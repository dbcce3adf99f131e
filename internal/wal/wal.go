// Package wal provides the write-ahead-log record format and the user-level
// write buffer shared by the baseline and SlimIO persistence backends.
//
// Records are CRC-framed so a decoder can detect a torn tail after a crash:
// everything up to the first bad frame is the durable prefix, matching how
// Redis truncates a partial AOF on startup.
//
// Recovery has one decoder, DecodeSegment. It reads a segment as the runs of
// bytes the device handed back (pages, or one file buffer), never building
// the concatenation, and its single pass both places a backend's append
// position (Segment.Prefix) and yields the records the engine replays, each
// copied once out of the runs. Decode is the single-frame primitive under it.
package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"github.com/slimio/slimio/internal/bufpool"
)

// Op is the logged operation type.
type Op uint8

const (
	// OpSet records a key/value write.
	OpSet Op = 1
	// OpDel records a key deletion (empty value).
	OpDel Op = 2
)

// Record is one logged mutation.
type Record struct {
	Op    Op
	Key   []byte
	Value []byte
}

const recordMagic = 0xA5

// headerSize is magic(1) + op(1) + keyLen(4) + valLen(4) + crc(4).
const headerSize = 14

// EncodedSize returns the framed size of a record.
func EncodedSize(key, value []byte) int { return headerSize + len(key) + len(value) }

// AppendRecord appends the framed record to dst and returns the result.
func AppendRecord(dst []byte, op Op, key, value []byte) []byte {
	var hdr [headerSize]byte
	hdr[0] = recordMagic
	hdr[1] = byte(op)
	binary.LittleEndian.PutUint32(hdr[2:6], uint32(len(key)))
	binary.LittleEndian.PutUint32(hdr[6:10], uint32(len(value)))
	crc := crc32.NewIEEE()
	crc.Write(hdr[:10])
	crc.Write(key)
	crc.Write(value)
	binary.LittleEndian.PutUint32(hdr[10:14], crc.Sum32())
	dst = append(dst, hdr[:]...)
	dst = append(dst, key...)
	dst = append(dst, value...)
	return dst
}

// ErrTornRecord marks a frame that fails validation: the readable prefix
// before it is the recoverable log.
var ErrTornRecord = fmt.Errorf("wal: torn or corrupt record")

// frameLen returns the framed length the header at the front of buf
// declares, or false when buf holds no plausible header: too short, the
// wrong magic, or a key or value past the frame limits.
func frameLen(buf []byte) (int, bool) {
	if len(buf) < headerSize || buf[0] != recordMagic {
		return 0, false
	}
	keyLen := binary.LittleEndian.Uint32(buf[2:6])
	valLen := binary.LittleEndian.Uint32(buf[6:10])
	if int(keyLen) > 1<<24 || int(valLen) > 1<<28 {
		return 0, false
	}
	return headerSize + int(keyLen) + int(valLen), true
}

// Decode parses one record at the front of buf. It returns the record and
// the number of bytes consumed, or ErrTornRecord (n==0) when the frame is
// incomplete or corrupt. The record's Key and Value are views of buf, not
// copies: they stay valid as long as buf is left alone, and a caller that
// keeps one keeps all of buf alive.
func Decode(buf []byte) (rec Record, n int, err error) {
	total, ok := frameLen(buf)
	if !ok || len(buf) < total {
		return rec, 0, ErrTornRecord
	}
	crc := crc32.Update(0, crc32.IEEETable, buf[:10])
	crc = crc32.Update(crc, crc32.IEEETable, buf[headerSize:total])
	if crc != binary.LittleEndian.Uint32(buf[10:14]) {
		return rec, 0, ErrTornRecord
	}
	keyEnd := headerSize + int(binary.LittleEndian.Uint32(buf[2:6]))
	rec.Op = Op(buf[1])
	rec.Key = buf[headerSize:keyEnd:keyEnd]
	rec.Value = buf[keyEnd:total:total]
	return rec, total, nil
}

// Segment is one log segment as recovery decodes it.
type Segment struct {
	// Len is the segment's length in bytes: the sum of its runs' lengths.
	Len int64
	// Records is the durable record prefix in log order. Each record's Key
	// and Value are copies sharing one allocation of their own, not views of
	// the runs: a caller may keep a record while the runs are reused, and
	// keeping one keeps nothing else alive.
	Records []Record
	// Prefix is the byte offset where decoding stopped: the durable-prefix
	// length, Len when every frame decoded.
	Prefix int64
	// Corrupt reports that decoding stopped on non-zero bytes. A trailing
	// run of zero bytes is a clean unwritten tail (Corrupt false); anything
	// else after the last valid frame — a torn page program, flipped bits
	// mid-segment — is Corrupt, so recovery can tell the expected crash
	// artifact from data lost past this point.
	Corrupt bool
}

// DecodeSegment decodes the frames of the concatenation of runs (a segment
// as the device pages it was read as) until the runs end or a bad frame
// stops it, without building the concatenation. A frame inside one run is
// checked in place and its key and value copied out; one that straddles runs
// is gathered whole, header included, into the allocation its record keeps
// and decoded there. Either way Decode checks every frame and each record is
// copied once. The result is exactly what decoding the concatenation with
// Decode, frame by frame, would give.
func DecodeSegment(runs [][]byte) Segment {
	var seg Segment
	for _, r := range runs {
		seg.Len += int64(len(r))
	}
	var hdr [headerSize]byte
	i, off := 0, 0 // the next frame starts at runs[i][off]
	for {
		for i < len(runs) && off == len(runs[i]) {
			i, off = i+1, 0
		}
		if i == len(runs) {
			return seg
		}
		src := runs[i][off:]
		rec, n, err := Decode(src)
		if err == nil {
			kv := bytes.Clone(src[headerSize:n])
			rec.Key, rec.Value = kv[:len(rec.Key):len(rec.Key)], kv[len(rec.Key):]
		} else if rest := seg.Len - seg.Prefix; int64(len(src)) < rest {
			// Decode saw only this run's share of the bytes. If the header
			// declares a frame longer than that share and the runs hold it,
			// decode the frame gathered from the runs instead; the record
			// keeps views of that gathered copy.
			total, ok := frameLen(gather(hdr[:0], runs, i, off, headerSize))
			if ok && total > len(src) && int64(total) <= rest {
				rec, n, err = Decode(gather(make([]byte, 0, total), runs, i, off, total))
			}
		}
		if err != nil {
			seg.Corrupt = !zeroFrom(runs, i, off)
			return seg
		}
		seg.Records = append(seg.Records, rec)
		seg.Prefix += int64(n)
		for off += n; off > len(runs[i]); i++ {
			off -= len(runs[i])
		}
	}
}

// gather appends up to n bytes of the runs' concatenation, starting at
// offset off of runs[i], to the empty dst and returns them: fewer than n
// when the runs end first.
func gather(dst []byte, runs [][]byte, i, off, n int) []byte {
	for ; i < len(runs) && len(dst) < n; i, off = i+1, 0 {
		r := runs[i][off:]
		dst = append(dst, r[:min(len(r), n-len(dst))]...)
	}
	return dst
}

// zeroFrom reports whether the runs' concatenation is all zero bytes from
// offset off of runs[i] on: the unwritten remainder of a page rather than
// the debris of a torn or corrupted frame.
func zeroFrom(runs [][]byte, i, off int) bool {
	for ; i < len(runs); i, off = i+1, 0 {
		// Every byte equals its successor and the first is zero: one
		// memequal over the run shifted against itself, not a byte loop.
		if b := runs[i][off:]; len(b) > 0 && (b[0] != 0 || !bytes.Equal(b[1:], b[:len(b)-1])) {
			return false
		}
	}
	return true
}

// Chain is a drained run of WAL bytes held in pooled, page-sized segments —
// the iovec-style hand-off from the engine's write buffer to a backend.
//
// Ownership contract (the zero-copy data plane's load-bearing rules):
//
//   - The receiver of a Chain owns exactly one reference per segment in Segs
//     and must Release (or transfer) each exactly once. Chain.Release drops
//     them all; a backend that forwards whole segments to the device instead
//     hands each reference down the submission path.
//   - Only [Off, End) of the chain is the receiver's data: Off is the start
//     offset in Segs[0], End the used length of the last segment. Bytes
//     below Off were drained earlier (and may already sit on the device);
//     bytes past End in the last segment still belong to the producer.
//   - Drained bytes are immutable. The producing Buffer keeps filling the
//     shared tail segment strictly past End and never rewrites a byte below
//     it, so a receiver (or the device) may hold segment references for as
//     long as it likes — recycling is gated by the pool's reference counts
//     and the NAND quarantine, never by the producer's write position.
type Chain struct {
	Segs []*bufpool.Segment
	Off  int // byte offset in Segs[0] where the run starts
	End  int // bytes used in the last segment
}

// Empty reports whether the chain carries no segments.
func (c Chain) Empty() bool { return len(c.Segs) == 0 }

// Len is the number of payload bytes in the chain.
func (c Chain) Len() int {
	n := 0
	for i := range c.Segs {
		n += len(c.Span(i))
	}
	return n
}

// Span returns the payload byte range of segment i (respecting Off on the
// first segment and End on the last).
func (c Chain) Span(i int) []byte {
	b := c.Segs[i].Bytes()
	lo, hi := 0, len(b)
	if i == 0 {
		lo = c.Off
	}
	if i == len(c.Segs)-1 {
		hi = c.End
	}
	return b[lo:hi]
}

// Release drops the receiver's reference on every segment. Call exactly once
// unless the references were transferred elsewhere.
func (c *Chain) Release() {
	for _, s := range c.Segs {
		s.Release()
	}
	c.Segs = nil
}

// NewChain copies raw, already-framed bytes into freshly pooled segments and
// returns a chain owning one reference per segment. Helper for tests and
// replay paths that start from a contiguous stream; the hot path encodes
// directly into segments via Buffer instead.
func NewChain(pool *bufpool.Pool, data []byte) Chain {
	var c Chain
	for len(data) > 0 {
		s := pool.Get()
		n := copy(s.Bytes(), data)
		data = data[n:]
		c.Segs = append(c.Segs, s)
		c.End = n
	}
	return c
}

// Buffer is the user-level WAL write buffer (the paper's "Periodical-Log"
// staging area): records accumulate here and drain to the backend either
// when the server goes idle, when the buffer exceeds a size threshold, or on
// the flush timer.
//
// Records are encoded directly into pooled page-sized segments, so a drain
// transfers references instead of bytes: the same memory the event loop
// encoded into is what the device programs (zero-copy data plane). After a
// drain the buffer retains the partial tail segment and keeps filling it
// past the drained range — see Chain for why that is safe.
type Buffer struct {
	pool     *bufpool.Pool
	segs     []*bufpool.Segment // buffer-owned refs; segs[0] may be a shared tail
	off      int                // un-drained start offset in segs[0]
	end      int                // write position in the last segment
	records  int
	appended int64  // lifetime bytes appended, for WAL-snapshot triggering
	kbuf     []byte // reused scratch for AppendString keys
}

// NewBuffer returns a buffer encoding into pool's segments.
func NewBuffer(pool *bufpool.Pool) *Buffer {
	if pool == nil {
		panic("wal: NewBuffer needs a pool")
	}
	return &Buffer{pool: pool}
}

// write copies p into the tail, pulling fresh segments as needed.
func (b *Buffer) write(p []byte) {
	ss := b.pool.SegSize()
	for len(p) > 0 {
		if len(b.segs) == 0 || b.end == ss {
			b.segs = append(b.segs, b.pool.Get())
			b.end = 0
		}
		n := copy(b.segs[len(b.segs)-1].Bytes()[b.end:], p)
		b.end += n
		p = p[n:]
	}
}

// Append frames a record into the buffer.
func (b *Buffer) Append(op Op, key, value []byte) {
	var hdr [headerSize]byte
	hdr[0] = recordMagic
	hdr[1] = byte(op)
	binary.LittleEndian.PutUint32(hdr[2:6], uint32(len(key)))
	binary.LittleEndian.PutUint32(hdr[6:10], uint32(len(value)))
	crc := crc32.NewIEEE()
	crc.Write(hdr[:10])
	crc.Write(key)
	crc.Write(value)
	binary.LittleEndian.PutUint32(hdr[10:14], crc.Sum32())
	b.write(hdr[:])
	b.write(key)
	b.write(value)
	b.records++
	b.appended += int64(headerSize + len(key) + len(value))
}

// AppendString is Append with a string key, encoded through a reused scratch
// buffer so the per-command []byte(key) conversion allocates nothing.
func (b *Buffer) AppendString(op Op, key string, value []byte) {
	b.kbuf = append(b.kbuf[:0], key...)
	b.Append(op, b.kbuf, value)
}

// Len reports buffered (un-drained) bytes.
func (b *Buffer) Len() int {
	if len(b.segs) == 0 {
		return 0
	}
	return (len(b.segs)-1)*b.pool.SegSize() + b.end - b.off
}

// Records reports buffered record count.
func (b *Buffer) Records() int { return b.records }

// AppendedTotal reports lifetime bytes appended (drained or not).
func (b *Buffer) AppendedTotal() int64 { return b.appended }

// Drain hands the buffered bytes to the caller as a Chain (one reference per
// segment transfers; see Chain's ownership contract) and resets the record
// count. The buffer retains the partial tail segment — taking a reference of
// its own — and continues encoding past the drained range.
func (b *Buffer) Drain() Chain {
	if b.Len() == 0 {
		return Chain{}
	}
	c := Chain{Segs: b.segs, Off: b.off, End: b.end}
	last := b.segs[len(b.segs)-1]
	if b.end < b.pool.SegSize() {
		last.Retain()
		b.segs = []*bufpool.Segment{last}
		b.off = b.end
	} else {
		b.segs = nil
		b.off, b.end = 0, 0
	}
	b.records = 0
	return c
}

// Cut drops the retained tail segment so the next append starts on a fresh
// one — called after a WAL rotation, keeping the buffer's segment boundaries
// page-aligned with the backend's new log head. The buffer must be drained.
func (b *Buffer) Cut() {
	if b.Len() != 0 {
		panic("wal: Cut on a buffer with un-drained bytes")
	}
	b.Close()
}

// Close releases every segment the buffer still holds (including un-drained
// data). Use at shutdown/teardown; the buffer is reusable afterwards.
func (b *Buffer) Close() {
	for _, s := range b.segs {
		s.Release()
	}
	b.segs = nil
	b.off, b.end = 0, 0
	b.records = 0
}

// Reset discards buffered data and the lifetime counter (used when a
// WAL-snapshot supersedes the log).
func (b *Buffer) Reset() {
	b.Close()
	b.appended = 0
}
