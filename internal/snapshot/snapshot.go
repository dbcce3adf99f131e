// Package snapshot implements the RDB-like snapshot serialization format
// shared by the baseline and SlimIO backends: a header, a sequence of
// independently-compressed CRC-framed chunks of key/value entries, and a
// trailer. Chunked framing lets the writer stream the dump without holding
// the serialized image in memory, and lets the reader validate as it loads.
//
// Compression is real: an in-repo byte-oriented LZ77 (lz.go) of the LZF class
// Redis uses on RDB string values, so compression ratios — and therefore
// snapshot sizes and device traffic — come from the actual data, while the
// CPU cost of compressing is billed to the snapshot process through the
// engine's cost model.
//
// A chunk frame is rawLen, compLen and the CRC-32 of the payload (three
// little-endian uint32), then compLen payload bytes. compLen < rawLen is a
// compressed stream; compLen == rawLen is the stored form, the chunk verbatim,
// which the writer uses whenever compressing would not shrink it; a frame
// with compLen > rawLen is corrupt. A frame is a pure function of its chunk's
// bytes. rawLen == 0 marks the trailer.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Magic opens every snapshot image: a fixed prefix and one format version
// byte. A reader accepts its own version only.
var Magic = []byte("SLIMRDB2")

// ErrVersion is matched (errors.Is) by the error for an image that has the
// magic prefix but another format version.
var ErrVersion = errors.New("snapshot: unsupported format version")

// DefaultChunkSize is the uncompressed chunk target (64 KiB).
const DefaultChunkSize = 64 << 10

// Entry is one key/value pair in the dump.
type Entry struct {
	Key   []byte
	Value []byte
}

// appendEntry frames an entry into buf.
func appendEntry(buf []byte, key, value []byte) []byte {
	var l [8]byte
	binary.LittleEndian.PutUint32(l[0:4], uint32(len(key)))
	binary.LittleEndian.PutUint32(l[4:8], uint32(len(value)))
	buf = append(buf, l[:]...)
	buf = append(buf, key...)
	buf = append(buf, value...)
	return buf
}

// EntrySize returns the framed size of an entry.
func EntrySize(key, value []byte) int { return 8 + len(key) + len(value) }

// Writer streams a snapshot image as a series of compressed chunks to an
// emit callback. The callback receives ready-to-store bytes plus the number
// of uncompressed bytes they encode (for cost accounting).
type Writer struct {
	emit      func(chunk []byte, rawBytes int) error
	chunkSize int
	pending   []byte
	entries   int64
	rawTotal  int64
	compTotal int64
	closed    bool

	// Per-chunk scratch, reused across flushes. compress clears table
	// itself, so reuse changes no output byte. frame reuse is safe because
	// every sink consumes the chunk before Write returns (page cache and
	// slot tail both copy).
	table hashTable
	frame []byte
}

// NewWriter builds a Writer emitting chunks through emit. chunkSize <= 0
// selects DefaultChunkSize.
func NewWriter(chunkSize int, emit func(chunk []byte, rawBytes int) error) (*Writer, error) {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	w := &Writer{emit: emit, chunkSize: chunkSize}
	hdr := make([]byte, 0, 16)
	hdr = append(hdr, Magic...)
	if err := emit(hdr, len(hdr)); err != nil {
		return nil, err
	}
	return w, nil
}

// Add appends one entry, flushing a chunk when the target size is reached.
func (w *Writer) Add(key, value []byte) error {
	if w.closed {
		return fmt.Errorf("snapshot: Add after Close")
	}
	w.pending = appendEntry(w.pending, key, value)
	w.entries++
	if len(w.pending) >= w.chunkSize {
		return w.flushChunk()
	}
	return nil
}

func (w *Writer) flushChunk() error {
	if len(w.pending) == 0 {
		return nil
	}
	raw := w.pending

	// The payload is built in place behind a 12-byte hole for the header.
	frame := slices.Grow(w.frame[:0], 12+maxCompressedLen(len(raw)))[:12]
	frame = compress(frame, raw, &w.table)
	if len(frame)-12 >= len(raw) {
		frame = append(frame[:12], raw...) // stored
	}
	comp := frame[12:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(raw)))
	binary.LittleEndian.PutUint32(frame[4:8], uint32(len(comp)))
	binary.LittleEndian.PutUint32(frame[8:12], crc32.ChecksumIEEE(comp))
	w.frame = frame

	w.rawTotal += int64(len(raw))
	w.compTotal += int64(len(comp))
	w.pending = w.pending[:0]
	return w.emit(frame, len(raw))
}

// Close flushes the final chunk and the trailer (a zero-length chunk header
// carrying the entry count).
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	if err := w.flushChunk(); err != nil {
		return err
	}
	w.closed = true
	var tr [12]byte
	// rawLen == 0 marks the trailer; the "crc" field carries the entry count.
	binary.LittleEndian.PutUint32(tr[8:12], uint32(w.entries))
	return w.emit(tr[:], len(tr))
}

// Entries reports entries added so far.
func (w *Writer) Entries() int64 { return w.entries }

// RawBytes reports uncompressed payload bytes emitted (excluding framing).
func (w *Writer) RawBytes() int64 { return w.rawTotal }

// CompressedBytes reports compressed payload bytes emitted.
func (w *Writer) CompressedBytes() int64 { return w.compTotal }

// maxInflateRatio bounds how far the codec can expand its input: a length
// continuation byte yields at most 255 raw bytes. A chunk header declaring
// more raw bytes than that is corrupt and is rejected before a buffer is
// sized from it.
const maxInflateRatio = 255

// Reader decodes a snapshot image chunk by chunk from one of two run
// sources: the runs of bytes a backend read the image as (NewImageReader:
// device or page-cache pages, never concatenated), or a sequential
// io.Reader (NewReader), whose reads become the runs. Both feed the one
// decode loop in Next. A frame inside one run is CRC-checked and inflated
// where it lies; a frame that straddles runs is first gathered into a scratch
// buffer reused for every such frame. The Reader never writes to a run.
//
// Every compressed chunk is inflated into one buffer the Reader reuses, and a
// stored chunk is used where it lies (in a run, or in the scratch). So the
// entries Next returns, and the slice holding them, are views that stay
// valid only until the next call to Next: a caller that keeps a key or a
// value past that copies it.
type Reader struct {
	run       []byte    // the unconsumed rest of the current run
	runs      [][]byte  // the runs after it (NewImageReader)
	src       io.Reader // or the stream the next runs are read from (NewReader)
	buf       []byte    // src's read buffer, reused for every run
	scratch   []byte    // the last straddling frame or header, gathered
	raw       []byte    // the last compressed chunk, inflated
	batch     []Entry   // the last chunk's entries
	sawHeader bool
	done      bool
	entries   int64
	declared  int64
}

// NewImageReader decodes the image that is the concatenation of runs, in
// order. The runs must stay unchanged until Next has returned io.EOF or an
// error.
func NewImageReader(runs [][]byte) *Reader { return &Reader{runs: runs} }

// NewReader decodes the image read from src.
func NewReader(src io.Reader) *Reader { return &Reader{src: src} }

// nextRun returns the next run of the image, or io.EOF when there is none.
func (r *Reader) nextRun() ([]byte, error) {
	if r.src == nil {
		if len(r.runs) == 0 {
			return nil, io.EOF
		}
		run := r.runs[0]
		r.runs = r.runs[1:]
		return run, nil
	}
	if r.buf == nil {
		r.buf = make([]byte, DefaultChunkSize)
	}
	for {
		n, err := r.src.Read(r.buf)
		if n > 0 {
			return r.buf[:n], nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// take consumes the next n bytes of the image and returns them: a view of the
// current run when it holds them all, else the bytes gathered into scratch.
// Either way they are valid only until the next take. n comes from an
// untrusted header, so scratch grows only as bytes actually arrive.
func (r *Reader) take(n int) ([]byte, error) {
	if len(r.run) >= n {
		b := r.run[:n]
		r.run = r.run[n:]
		return b, nil
	}
	r.scratch = append(r.scratch[:0], r.run...)
	r.run = nil
	for len(r.scratch) < n {
		run, err := r.nextRun()
		if err == io.EOF {
			// Running dry mid-frame is a truncated image, never a clean
			// end: clean EOF is only reported after the trailer.
			return nil, fmt.Errorf("snapshot: truncated image: %w", io.ErrUnexpectedEOF)
		}
		if err != nil {
			return nil, err
		}
		k := min(len(run), n-len(r.scratch))
		if len(r.scratch)+k > cap(r.scratch) {
			// At least double: a frame gathered from many small runs
			// then costs a few allocations, not one per run.
			r.scratch = slices.Grow(r.scratch, max(k, cap(r.scratch)))
		}
		r.scratch = append(r.scratch, run[:k]...)
		r.run = run[k:]
	}
	return r.scratch, nil
}

// inflate decodes a chunk payload of the declared raw length: a stored
// chunk is comp itself, a compressed one is decompressed into dst, grown as
// needed, and the payload must produce exactly rawLen bytes.
func inflate(dst, comp []byte, rawLen uint32) ([]byte, error) {
	if uint64(rawLen) > uint64(len(comp))*maxInflateRatio {
		return nil, fmt.Errorf("snapshot: chunk declares %d raw bytes, more than %d compressed bytes can hold", rawLen, len(comp))
	}
	if uint64(len(comp)) > uint64(rawLen) {
		return nil, fmt.Errorf("snapshot: chunk declares %d compressed bytes for %d raw ones", len(comp), rawLen)
	}
	if len(comp) == int(rawLen) { // stored
		return comp, nil
	}
	raw := slices.Grow(dst[:0], int(rawLen))[:rawLen]
	if err := decompress(raw, comp); err != nil {
		return nil, err
	}
	return raw, nil
}

// Next returns the next batch of entries (one chunk's worth), or io.EOF
// after the trailer. It validates the per-chunk CRC and, at the end, the
// declared entry count.
func (r *Reader) Next() ([]Entry, error) {
	if r.done {
		return nil, io.EOF
	}
	if !r.sawHeader {
		got, err := r.take(len(Magic))
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(got, Magic) {
			if v := len(Magic) - 1; bytes.Equal(got[:v], Magic[:v]) {
				return nil, fmt.Errorf("%w: image is version %q, this build reads only %q", ErrVersion, got[v], Magic[v])
			}
			return nil, fmt.Errorf("snapshot: bad magic")
		}
		r.sawHeader = true
	}
	hdr, err := r.take(12)
	if err != nil {
		return nil, err
	}
	rawLen := binary.LittleEndian.Uint32(hdr[0:4])
	compLen := binary.LittleEndian.Uint32(hdr[4:8])
	crcOrCount := binary.LittleEndian.Uint32(hdr[8:12])
	if rawLen == 0 {
		// Trailer.
		r.done = true
		r.declared = int64(crcOrCount)
		if r.declared != r.entries {
			return nil, fmt.Errorf("snapshot: trailer declares %d entries, read %d", r.declared, r.entries)
		}
		return nil, io.EOF
	}
	comp, err := r.take(int(compLen))
	if err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(comp) != crcOrCount {
		return nil, fmt.Errorf("snapshot: chunk CRC mismatch")
	}
	raw, err := inflate(r.raw, comp, rawLen)
	if err != nil {
		return nil, err
	}
	if len(comp) != len(raw) {
		r.raw = raw
	}

	// Validate the framing and count the entries, then slice them out.
	n := 0
	for rest := raw; len(rest) > 0; n++ {
		if len(rest) < 8 {
			return nil, fmt.Errorf("snapshot: truncated entry header")
		}
		kl := binary.LittleEndian.Uint32(rest[0:4])
		vl := binary.LittleEndian.Uint32(rest[4:8])
		total := 8 + int(kl) + int(vl)
		if len(rest) < total {
			return nil, fmt.Errorf("snapshot: truncated entry body")
		}
		rest = rest[total:]
	}
	out := slices.Grow(r.batch[:0], n)[:n]
	r.batch = out
	for i := range out {
		k := 8 + int(binary.LittleEndian.Uint32(raw[0:4]))
		v := k + int(binary.LittleEndian.Uint32(raw[4:8]))
		// Capacity-limited, so appending to one view cannot reach the next.
		out[i] = Entry{Key: raw[8:k:k], Value: raw[k:v:v]}
		raw = raw[v:]
	}
	r.entries += int64(n)
	return out, nil
}

// Entries reports entries decoded so far.
func (r *Reader) Entries() int64 { return r.entries }
