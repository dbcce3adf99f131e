// Package baseline implements the paper's baseline persistence backend: the
// WAL is a file appended through the traditional kernel I/O path, and
// snapshots are written to a temp file, fsynced, and renamed into place —
// exactly Redis's flow on EXT4/F2FS over a conventional SSD.
//
// Both streams share the filesystem's journal lock, the page cache, the
// block-layer scheduler, and (below all that) a single mixed-lifetime write
// front in the conventional FTL — the four §3.1 bottlenecks.
package baseline

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/slimio/slimio/internal/bufpool"
	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/kernelio"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/wal"
)

// span opens a baseline-layer span parented on the tracer's current scope
// and shifts the scope into it, so the kernelio syscall spans underneath
// nest correctly. The returned func ends the span and restores the scope.
func (b *Backend) span(env *sim.Env, name string, arg int64) func() {
	tr := b.fs.Tracer()
	if !tr.Enabled() {
		return func() {}
	}
	parent := tr.Scope()
	id := tr.Begin("baseline", name, parent, env.Now())
	tr.SetArg(id, arg)
	tr.SetScope(id)
	return func() {
		tr.End(id, env.Now())
		tr.SetScope(parent)
	}
}

const (
	walName     = "appendonly.wal"
	walSnapName = "dump-wal.rdb"
	odSnapName  = "dump-ondemand.rdb"
	readChunk   = 128 << 10 // recovery's read(2) size (glibc-buffered-reader class)
)

// Backend persists through a simulated kernel filesystem. The WAL is a
// sequence of segment files (Redis 7 multipart-AOF style): appends go to
// the newest segment; a WAL-Snapshot rotates to a fresh segment at fork and
// deletes the sealed ones at commit. A WAL append hands the drained chain's
// page segments to write(2) as they are (kernelio.File.AppendPages): whole
// drained pages become page-cache pages, and only partial pages are copied,
// the user→cache copy the kernel path bills in virtual time.
type Backend struct {
	fs      *kernelio.Filesystem
	walFile *kernelio.File
	sealed  []*kernelio.File
	walGen  int
	tmpGen  int
	// appending stages the segments of the chain a WALAppend call currently
	// holds, so a power cut frozen inside write(2) leaves the references
	// write(2) has not taken over (the non-nil slots) reachable for Close.
	appending []*bufpool.Segment
}

// Close releases every pooled reference the backend and its filesystem still
// hold (teardown for pool-quiescence accounting). The backend must not be
// used afterwards.
func (b *Backend) Close() {
	for _, s := range b.appending {
		if s != nil {
			s.Release()
		}
	}
	b.appending = nil
	b.fs.Close()
}

var _ imdb.Backend = (*Backend)(nil)

// New mounts the backend on fs, creating the initial WAL segment.
func New(fs *kernelio.Filesystem) (*Backend, error) {
	walFile, err := fs.Create(walName + ".0")
	if err != nil {
		return nil, err
	}
	return &Backend{fs: fs, walFile: walFile}, nil
}

// Remount re-attaches a backend to a crash-remounted filesystem: WAL
// segment files are rediscovered by directory scan (lowest generation is the
// oldest sealed segment, the highest is the open one), the way Redis lists
// its multipart AOF at startup. A filesystem with no WAL files gets a fresh
// segment, like New.
func Remount(fs *kernelio.Filesystem) (*Backend, error) {
	type segFile struct {
		gen  int
		name string
	}
	var segs []segFile
	tmpGen := 0
	for _, name := range fs.Names() {
		var gen int
		if _, err := fmt.Sscanf(name, walName+".%d", &gen); err == nil {
			segs = append(segs, segFile{gen, name})
			continue
		}
		// Skip past orphaned snapshot temp files (a snapshot in flight at
		// the crash) so fresh temp names never collide; recovery ignores
		// their contents.
		if strings.HasPrefix(name, "dump-") && strings.HasSuffix(name, ".tmp") {
			base := strings.TrimSuffix(name, ".tmp")
			if i := strings.LastIndexByte(base, '-'); i >= 0 {
				if g, err := strconv.Atoi(base[i+1:]); err == nil && g > tmpGen {
					tmpGen = g
				}
			}
		}
	}
	if len(segs) == 0 {
		b, err := New(fs)
		if err != nil {
			return nil, err
		}
		b.tmpGen = tmpGen
		return b, nil
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].gen < segs[j].gen })
	b := &Backend{fs: fs, tmpGen: tmpGen}
	for i, s := range segs {
		f, err := fs.Open(s.name)
		if err != nil {
			return nil, err
		}
		if i == len(segs)-1 {
			b.walFile = f
			b.walGen = s.gen
		} else {
			b.sealed = append(b.sealed, f)
		}
	}
	return b, nil
}

// Label names the backend for reports.
func (b *Backend) Label() string { return "baseline/" + b.fs.Profile().Name }

// WALAppend appends log bytes via write(2). On success write(2) has taken
// over every segment reference of the chain; on error they all stay with the
// caller, per the imdb.Backend contract, and ENOSPC reads as a full log.
func (b *Backend) WALAppend(env *sim.Env, data wal.Chain) error {
	end := b.span(env, "wal.append", int64(data.Len()))
	defer end()
	b.appending = data.Segs
	err := b.walFile.AppendPages(env, data.Segs, data.Off, data.End)
	b.appending = nil
	if errors.Is(err, kernelio.ErrNoSpace) {
		return fmt.Errorf("baseline: WAL append: %w: %w", imdb.ErrLogFull, err)
	}
	return err
}

// WALSync makes the log durable via fsync(2): first each sealed segment
// that has bytes no fsync or writeback covered yet — WALRotate seals without
// waiting, as Redis 7 fsyncs the old incremental AOF in a background job —
// then the current one.
func (b *Backend) WALSync(env *sim.Env) error {
	end := b.span(env, "wal.sync", 0)
	defer end()
	for _, f := range b.sealed {
		// Durable also skips a file WALDiscardOld deleted meanwhile.
		if !f.Durable() {
			if err := f.Fsync(env); err != nil {
				return err
			}
		}
	}
	return b.walFile.Fsync(env)
}

// WALDurableSize reports the current segment's length.
func (b *Backend) WALDurableSize() int64 { return b.walFile.Size() }

// WALRotate seals the current segment and starts a new file.
func (b *Backend) WALRotate(env *sim.Env) error {
	b.walGen++
	f, err := b.fs.Create(fmt.Sprintf("%s.%d", walName, b.walGen))
	if err != nil {
		return err
	}
	b.sealed = append(b.sealed, b.walFile)
	b.walFile = f
	return nil
}

// WALDiscardOld unlinks every sealed segment (their TRIMs tell the device
// the data is dead).
func (b *Backend) WALDiscardOld(env *sim.Env) error {
	for _, f := range b.sealed {
		if err := b.fs.Delete(env, f.Name()); err != nil {
			return err
		}
	}
	b.sealed = nil
	return nil
}

type fileSink struct {
	be    *Backend
	tmp   *kernelio.File
	final string
	off   int64
}

func (s *fileSink) Write(env *sim.Env, chunk []byte) error {
	end := s.be.span(env, "dump.write", int64(len(chunk)))
	defer end()
	err := s.tmp.Write(env, s.off, chunk)
	s.off += int64(len(chunk))
	return err
}

func (s *fileSink) Commit(env *sim.Env) error {
	end := s.be.span(env, "dump.commit", 0)
	defer end()
	if err := s.tmp.Fsync(env); err != nil {
		return err
	}
	// rename(tmp, final) atomically replaces the previous snapshot; the
	// deletion TRIMs its extents, telling the device that data is dead.
	return s.be.fs.Rename(env, s.tmp.Name(), s.final)
}

func (s *fileSink) Abort(env *sim.Env) error {
	return s.be.fs.Delete(env, s.tmp.Name())
}

// BeginSnapshot opens a temp dump file for the given kind.
func (b *Backend) BeginSnapshot(env *sim.Env, kind imdb.SnapshotKind) (imdb.SnapshotSink, error) {
	b.tmpGen++
	name := fmt.Sprintf("dump-%s-%d.tmp", kind, b.tmpGen)
	tmp, err := b.fs.Create(name)
	if err != nil {
		return nil, err
	}
	final := walSnapName
	if kind == imdb.OnDemandSnapshot {
		final = odSnapName
	}
	return &fileSink{be: b, tmp: tmp, final: final}, nil
}

// readAll reads a whole file in readChunk-sized read(2) calls and returns the
// page-cache views they append (File.Read), as core returns device pages. A
// device read failure mid-file (retries already exhausted below) stops the
// scan: the prefix read so far is returned with a degradation note, because a
// durable-prefix recovery beats refusing to start.
func (b *Backend) readAll(env *sim.Env, name string) (runs [][]byte, note string, err error) {
	f, err := b.fs.Open(name)
	if err != nil {
		return nil, "", err
	}
	for off := int64(0); off < f.Size(); off += readChunk {
		if runs, err = f.Read(env, runs, off, readChunk); err != nil {
			return runs, fmt.Sprintf("%s: unreadable at byte %d of %d: %v", name, off, f.Size(), err), nil
		}
	}
	return runs, "", nil
}

// Recover loads the preferred snapshot (WAL-Snapshot first, as Redis
// prefers the log-coupled pair) plus the durable WAL. The open segment is
// truncated to its durable prefix afterwards, as Redis truncates a partial
// AOF, so post-recovery appends continue exactly where replay stopped.
func (b *Backend) Recover(env *sim.Env) (*imdb.Recovered, error) {
	rec := &imdb.Recovered{WALTruncatedAt: -1}
	note := ""
	var err error
	switch {
	case b.fs.Exists(walSnapName):
		rec.Snapshot, note, err = b.readAll(env, walSnapName)
		rec.HaveSnapshot, rec.Kind = true, imdb.WALSnapshot
	case b.fs.Exists(odSnapName):
		rec.Snapshot, note, err = b.readAll(env, odSnapName)
		rec.HaveSnapshot, rec.Kind = true, imdb.OnDemandSnapshot
	}
	if err != nil {
		return nil, err
	}
	if note != "" {
		rec.Degraded = append(rec.Degraded, note)
	}
	for _, f := range append(append([]*kernelio.File(nil), b.sealed...), b.walFile) {
		seg, note, err := b.readAll(env, f.Name())
		if err != nil {
			return nil, err
		}
		if note != "" {
			rec.Degraded = append(rec.Degraded, note)
		}
		rec.WAL = append(rec.WAL, wal.DecodeSegment(seg))
	}
	// After a crash the open segment can end in a torn tail (non-zero
	// garbage from a partial page) or lost zero pages; record where the
	// durable prefix ends and truncate the file to it so appends resume
	// there. A live (non-crash) Recover leaves the file alone — its cache
	// is the source of truth and need not hold framed records.
	if b.fs.CrashMounted() {
		open := rec.WAL[len(rec.WAL)-1]
		if open.Corrupt {
			rec.WALTruncatedAt = open.Prefix
			rec.Degraded = append(rec.Degraded, fmt.Sprintf("%s: decode stopped on non-zero garbage at byte %d of %d", b.walFile.Name(), open.Prefix, open.Len))
		}
		b.walFile.Truncate(open.Prefix)
	}
	return rec, nil
}
