// Package wal provides the write-ahead-log record format and the user-level
// write buffer shared by the baseline and SlimIO persistence backends.
//
// Records are CRC-framed so a decoder can detect a torn tail after a crash:
// everything up to the first bad frame is the durable prefix, matching how
// Redis truncates a partial AOF on startup.
//
// Recovery has one decoder, DecodeSegment. It reads a segment as the runs of
// bytes the backend read (device or page-cache pages), never building
// the concatenation, and its single pass both places a backend's append
// position (Segment.Prefix) and yields the records the engine replays as
// views of the runs, copying nothing. Decode parses one frame held whole in
// one buffer.
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
	start := len(dst)
	dst = append(dst, recordMagic, byte(op))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(key)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(value)))
	dst = binary.LittleEndian.AppendUint32(dst, frameCRC(dst[start:], key, value))
	dst = append(dst, key...)
	return append(dst, value...)
}

// frameCRC is the frame CRC: the IEEE CRC-32 of the header's first ten
// bytes, the key and the value, in that order. crc32.Update leaks its input
// to the heap (its kernel is chosen at run time), so a caller passes bytes
// that live there already rather than a stack array.
func frameCRC(hdr, key, value []byte) uint32 {
	crc := crc32.Update(0, crc32.IEEETable, hdr)
	crc = crc32.Update(crc, crc32.IEEETable, key)
	return crc32.Update(crc, crc32.IEEETable, value)
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
//
// Its records are views of the runs DecodeSegment was given, not copies:
// they stay valid only while the runs are left alone — for a backend's
// device pages, until the recovering engine writes again; Record, Key and
// Value gather the bytes of a frame that straddles runs. A caller that keeps
// a segment past that point keeps Clone's copy instead.
type Segment struct {
	// Len is the segment's length in bytes: the sum of its runs' lengths.
	Len int64
	// Prefix is the byte offset where decoding stopped: the durable-prefix
	// length, Len when every frame decoded.
	Prefix int64
	// Corrupt reports that decoding stopped on non-zero bytes. A trailing
	// run of zero bytes is a clean unwritten tail (Corrupt false); anything
	// else after the last valid frame — a torn page program, flipped bits
	// mid-segment — is Corrupt, so recovery can tell the expected crash
	// artifact from data lost past this point.
	Corrupt bool

	runs   [][]byte
	frames []frame // the durable record prefix, in log order
}

// frame locates one decoded record in the runs: where its key and its value
// start, and their lengths.
type frame struct {
	key, val pos
	keyLen   int32
	valLen   int32
	op       Op
}

// pos is a byte position in the runs: offset off of runs[run].
type pos struct{ run, off int32 }

// Count is the number of records in the durable prefix.
func (s *Segment) Count() int { return len(s.frames) }

// Op is record i's operation.
func (s *Segment) Op(i int) Op { return s.frames[i].op }

// ValueLen is the length of record i's value.
func (s *Segment) ValueLen(i int) int { return int(s.frames[i].valLen) }

// Covered is the number of records that end at or before byte off.
func (s *Segment) Covered(off int64) int {
	end := int64(0)
	for i, f := range s.frames {
		if end += headerSize + int64(f.keyLen) + int64(f.valLen); end > off {
			return i
		}
	}
	return len(s.frames)
}

// Key returns record i's key: a view of the run that holds it or, when it
// straddles runs, its bytes gathered into *scratch, which grows as needed
// and is overwritten by the next gather into it.
func (s *Segment) Key(i int, scratch *[]byte) []byte {
	f := &s.frames[i]
	return s.view(scratch, f.key, int(f.keyLen))
}

// Value returns record i's value as Key returns its key.
func (s *Segment) Value(i int, scratch *[]byte) []byte {
	f := &s.frames[i]
	return s.view(scratch, f.val, int(f.valLen))
}

// AppendValue appends record i's value to dst, piece by piece from the runs
// it lies in, and returns the result.
func (s *Segment) AppendValue(dst []byte, i int) []byte {
	f := &s.frames[i]
	return s.gather(dst, f.val, int(f.valLen))
}

// AppendRange appends the n bytes of the segment at byte offset off to dst
// and returns the result.
func (s *Segment) AppendRange(dst []byte, off int64, n int) []byte {
	return s.gather(dst, s.advance(pos{}, int(off)), n)
}

// Record returns record i with its key and value as Key and Value return
// them, a straddling one gathered into an allocation of its own.
func (s *Segment) Record(i int) Record {
	var k, v []byte
	return Record{Op: s.frames[i].op, Key: s.Key(i, &k), Value: s.Value(i, &v)}
}

// Records returns every record of the durable prefix, as Record does.
func (s *Segment) Records() []Record {
	out := make([]Record, len(s.frames))
	for i := range out {
		out[i] = s.Record(i)
	}
	return out
}

// Clone returns s decoded from a private copy of its durable prefix, so its
// records stay valid after the runs are reused. It reads nothing past Prefix,
// which a backend may already have released (the baseline truncates its
// crash-mounted log there): the copy is zero-filled to Len and keeps s's
// Corrupt, so the clone equals s field for field.
func (s *Segment) Clone() Segment {
	flat := s.gather(make([]byte, 0, s.Len), pos{}, int(s.Prefix))
	c := DecodeSegment([][]byte{flat[:s.Len]})
	c.Corrupt = s.Corrupt
	return c
}

// view returns the n bytes at p: a capacity-limited view when one run holds
// them all, else gathered into *scratch.
func (s *Segment) view(scratch *[]byte, p pos, n int) []byte {
	if r := s.runs[p.run][p.off:]; len(r) >= n {
		return r[:n:n]
	}
	*scratch = s.gather((*scratch)[:0], p, n)
	return *scratch
}

// gather appends the n bytes at p to dst, run by run.
func (s *Segment) gather(dst []byte, p pos, n int) []byte {
	for i, off := int(p.run), int(p.off); n > 0; i, off = i+1, 0 {
		r := s.runs[i][off:]
		r = r[:min(len(r), n)]
		dst = append(dst, r...)
		n -= len(r)
	}
	return dst
}

// DecodeSegment decodes the frames of the concatenation of runs (a segment
// as the device pages it was read as) until the runs end or a bad frame
// stops it, without building the concatenation and without copying a
// frame: each is checked where it lies, its CRC carried from run to run
// when it straddles them, and the records it yields are views of the runs.
// The result is exactly what decoding the concatenation with Decode, frame
// by frame, would give.
func DecodeSegment(runs [][]byte) Segment {
	seg := Segment{runs: runs}
	for _, r := range runs {
		seg.Len += int64(len(r))
	}
	if len(runs) == 0 {
		return seg
	}
	var hdr [headerSize]byte
	scratch := hdr[:0]
	at := seg.advance(pos{}, 0) // the next frame's header
	for rest := seg.Len; rest > 0; rest = seg.Len - seg.Prefix {
		h := seg.view(&scratch, at, int(min(rest, headerSize)))
		total, ok := frameLen(h)
		if !ok || int64(total) > rest {
			break
		}
		f := frame{
			op:     Op(h[1]),
			keyLen: int32(binary.LittleEndian.Uint32(h[2:6])),
			valLen: int32(binary.LittleEndian.Uint32(h[6:10])),
		}
		f.key = seg.advance(at, headerSize)
		f.val = seg.advance(f.key, int(f.keyLen))
		crc := crc32.Update(0, crc32.IEEETable, h[:10])
		if seg.checksum(crc, f.key, total-headerSize) != binary.LittleEndian.Uint32(h[10:14]) {
			break
		}
		seg.frames = append(seg.frames, f)
		seg.Prefix += int64(total)
		at = seg.advance(f.val, int(f.valLen))
	}
	seg.Corrupt = seg.Prefix < seg.Len && !zeroFrom(runs, int(at.run), int(at.off))
	return seg
}

// advance returns the position n bytes past p, moved on to the start of the
// next non-empty run when it falls at the end of one, so a view from it
// finds its bytes in one run whenever they lie in one.
func (s *Segment) advance(p pos, n int) pos {
	off := int(p.off) + n
	for int(p.run) < len(s.runs)-1 && off >= len(s.runs[p.run]) {
		off -= len(s.runs[p.run])
		p.run++
	}
	p.off = int32(off)
	return p
}

// checksum extends crc over the n bytes at p, run by run.
func (s *Segment) checksum(crc uint32, p pos, n int) uint32 {
	for i, off := int(p.run), int(p.off); n > 0; i, off = i+1, 0 {
		r := s.runs[i][off:]
		r = r[:min(len(r), n)]
		crc = crc32.Update(crc, crc32.IEEETable, r)
		n -= len(r)
	}
	return crc
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
//     below Off were drained earlier (and may already sit on the device) or,
//     first after a recovery, are the Buffer's copy of the recovered
//     part-filled page (see Buffer.Restart); bytes past End in the last
//     segment still belong to the producer.
//   - A Buffer's chains continue the log page by page: Segs[0] holds the
//     log's open page, so Off is that page's fill and every segment
//     boundary is a page boundary of the log.
//   - The receiver owns the references, not the Segs list: it must not keep
//     the list past the call that handed it the chain, since the producer
//     may build its next chain in the same array (Buffer.DrainTo).
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
// returns a chain owning one reference per segment. Its chains start at byte
// 0 of a fresh segment, so they continue a log only at a page boundary. A
// test helper: no replay path uses it, and the engine encodes directly into
// segments via Buffer instead.
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
//
// The buffer is the one queue of log bytes a backend has not accepted: a
// chain the backend refuses goes back to its head (Undrain) and is drained
// again with whatever was appended since. Its segments start where the
// backend's log pages start: Restart keeps them so after a rotation or a
// recovery, and Relay for bytes that waited across a rotation.
type Buffer struct {
	pool *bufpool.Pool
	segs []*bufpool.Segment // buffer-owned refs; segs[0] may be a shared tail
	off  int                // un-drained start offset in segs[0]
	end  int                // write position in the last segment
	kbuf []byte             // reused scratch for AppendString keys
	hdr  [headerSize]byte
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
	hdr := &b.hdr
	hdr[0] = recordMagic
	hdr[1] = byte(op)
	binary.LittleEndian.PutUint32(hdr[2:6], uint32(len(key)))
	binary.LittleEndian.PutUint32(hdr[6:10], uint32(len(value)))
	binary.LittleEndian.PutUint32(hdr[10:14], frameCRC(hdr[:10], key, value))
	b.write(hdr[:])
	b.write(key)
	b.write(value)
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

// Drain hands the buffered bytes to the caller as a Chain (one reference per
// segment transfers; see Chain's ownership contract). The buffer retains the
// partial tail segment — taking a reference of its own — and continues
// encoding past the drained range. The chain's segment list is new, so a
// caller may keep any number of chains in flight.
func (b *Buffer) Drain() Chain { return b.DrainTo(nil) }

// DrainTo is Drain with the chain's segment list built in dst's backing
// array, which the caller owns and may reuse once the chain is passed on:
// the buffer never keeps a list it hands out.
func (b *Buffer) DrainTo(dst []*bufpool.Segment) Chain {
	if b.Len() == 0 {
		return Chain{}
	}
	c := Chain{Segs: append(dst[:0], b.segs...), Off: b.off, End: b.end}
	last := b.segs[len(b.segs)-1]
	clear(b.segs)
	b.segs = b.segs[:0]
	if b.end < b.pool.SegSize() {
		last.Retain()
		b.segs = append(b.segs, last)
		b.off = b.end
	} else {
		b.off, b.end = 0, 0
	}
	return c
}

// Undrain puts c, the chain the last drain returned, back at the buffer's
// head with every reference it holds, as if that drain had not happened: the
// backend refused it, and the next drain offers its bytes again, ahead of
// anything appended since. Nothing may be appended between the two.
func (b *Buffer) Undrain(c Chain) {
	if c.Empty() {
		return
	}
	if b.Len() != 0 {
		panic("wal: Undrain after an append")
	}
	if len(b.segs) > 0 {
		b.segs[0].Release() // the drain's retained tail: c holds it too
	}
	b.segs = append(b.segs[:0], c.Segs...)
	b.off, b.end = c.Off, c.End
}

// Restart drops the retained tail segment and starts the next append at
// byte len(prefix) of a fresh segment that already holds prefix, so the
// buffer's segment boundaries track the backend's page boundaries: after a
// WAL rotation prefix is nil (the new log starts on a page boundary); after
// a recovery it is the recovered open segment's bytes from its last page
// boundary on, and the next drain continues that part-filled page. The
// buffer must be drained, and prefix must be shorter than a segment.
func (b *Buffer) Restart(prefix []byte) {
	if b.Len() != 0 {
		panic("wal: Restart on a buffer with un-drained bytes")
	}
	if len(prefix) >= b.pool.SegSize() {
		panic("wal: Restart prefix fills a whole segment")
	}
	b.Close()
	if len(prefix) > 0 {
		s := b.pool.Get()
		b.segs = []*bufpool.Segment{s}
		b.off = copy(s.Bytes(), prefix)
		b.end = b.off
	}
}

// Relay drops the first skip buffered bytes and copies the rest onto fresh
// segments from byte 0, as Restart(nil) starts them: bytes that waited,
// undrained, across a rotation were laid out against the old log segment's
// pages, and now continue the new segment's first page.
func (b *Buffer) Relay(skip int) {
	old := b.Drain()
	b.Restart(nil)
	for i := range old.Segs {
		span := old.Span(i)
		n := min(skip, len(span))
		skip -= n
		b.write(span[n:])
	}
	old.Release()
}

// Close releases every segment the buffer still holds (including un-drained
// data). Use at shutdown/teardown; the buffer is reusable afterwards.
func (b *Buffer) Close() {
	for _, s := range b.segs {
		s.Release()
	}
	clear(b.segs)
	b.segs = b.segs[:0]
	b.off, b.end = 0, 0
}
