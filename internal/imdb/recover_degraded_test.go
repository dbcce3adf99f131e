package imdb

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/snapshot"
	"github.com/slimio/slimio/internal/wal"
)

// cannedBackend hands Recover a pre-built Recovered, so these tests can put
// precisely damaged state in front of the engine without arranging a real
// device crash.
type cannedBackend struct {
	*Model
	rec *Recovered
}

func (c *cannedBackend) Recover(env *sim.Env) (*Recovered, error) { return c.rec, nil }

// recoverCanned runs Engine.Recover over a canned Recovered and returns the
// engine (for store and LastRecovery assertions) plus Recover's counts.
func recoverCanned(t *testing.T, rec *Recovered) (*Engine, int64, int64) {
	t.Helper()
	eng := sim.NewEngine()
	be := &cannedBackend{Model: &Model{}, rec: rec}
	db := New(eng, be, Config{Policy: PeriodicalLog}, nil)
	var entries, walRecs int64
	eng.Spawn("recover", func(env *sim.Env) {
		var err error
		entries, walRecs, err = db.Recover(env)
		if err != nil {
			t.Errorf("recover: %v", err)
		}
	})
	eng.Run()
	return db, entries, walRecs
}

// buildSnapshotImage writes entries through the real snapshot Writer with a
// small chunk size and returns the image plus each payload chunk's offset
// within it (excluding the magic preamble and trailer).
func buildSnapshotImage(t *testing.T, chunkSize int, keys, vals [][]byte) (img []byte, chunkOffs []int) {
	t.Helper()
	var buf []byte
	w, err := snapshot.NewWriter(chunkSize, func(chunk []byte, rawBytes int) error {
		// The writer emits the magic first and the trailer last; payload
		// chunks carry a 12-byte header and land in between.
		if !bytes.HasPrefix(chunk, snapshot.Magic) && rawBytes > len(chunk) {
			chunkOffs = append(chunkOffs, len(buf))
		}
		buf = append(buf, chunk...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if err := w.Add(keys[i], vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf, chunkOffs
}

// TestRecoverDegradedSnapshotDecode: a committed snapshot whose image lost
// bytes under it (a chunk CRC mismatch mid-image) must not fail recovery —
// the engine keeps the entries that decoded, notes the damage in Degraded,
// and still replays the WAL on top.
func TestRecoverDegradedSnapshotDecode(t *testing.T) {
	var keys, vals [][]byte
	for i := 0; i < 10; i++ {
		keys = append(keys, []byte(fmt.Sprintf("s%02d", i)))
		vals = append(vals, bytes.Repeat([]byte{byte('a' + i)}, 30))
	}
	// ~38 raw bytes per entry and a 64-byte chunk target → two entries per
	// chunk, five chunks.
	img, chunkOffs := buildSnapshotImage(t, 64, keys, vals)
	if len(chunkOffs) < 2 {
		t.Fatalf("image has %d payload chunks, need >= 2", len(chunkOffs))
	}
	// Flip one byte inside the second chunk's compressed payload (past its
	// 12-byte header) — the CRC check must stop the decode there.
	img[chunkOffs[1]+12+1] ^= 0xff

	// The exact note embeds the reader's error; derive it from the same
	// damaged image rather than hard-coding the wording.
	surviving := int64(0)
	var decodeErr error
	r := snapshot.NewReader(bytes.NewReader(img))
	for {
		batch, err := r.Next()
		if err != nil {
			decodeErr = err
			break
		}
		surviving += int64(len(batch))
	}
	if decodeErr == nil || surviving == 0 || surviving >= int64(len(keys)) {
		t.Fatalf("damaged image must decode partially: %d entries, err %v", surviving, decodeErr)
	}

	walSeg := wal.AppendRecord(nil, wal.OpSet, []byte("w00"), []byte("wal-value"))
	db, entries, walRecs := recoverCanned(t, &Recovered{
		HaveSnapshot:   true,
		Kind:           WALSnapshot,
		Snapshot:       [][]byte{img},
		WAL:            walOf(walSeg),
		WALTruncatedAt: -1,
	})

	if entries != surviving {
		t.Errorf("recovered %d snapshot entries, want %d (the decodable prefix)", entries, surviving)
	}
	if walRecs != 1 {
		t.Errorf("replayed %d wal records, want 1 (replay continues past snapshot damage)", walRecs)
	}
	rec := db.LastRecovery()
	if rec == nil {
		t.Fatal("LastRecovery is nil after Recover")
	}
	want := fmt.Sprintf("snapshot decode stopped after %d entries: %v", surviving, decodeErr)
	if len(rec.Degraded) != 1 || rec.Degraded[0] != want {
		t.Errorf("Degraded = %q, want exactly [%q]", rec.Degraded, want)
	}
	if rec.WALTruncatedAt != -1 {
		t.Errorf("WALTruncatedAt = %d, want -1 (snapshot damage is not a WAL truncation)", rec.WALTruncatedAt)
	}
	for i := int64(0); i < surviving; i++ {
		if got := db.Store().Get(string(keys[i])); !bytes.Equal(got, vals[i]) {
			t.Errorf("store[%s] = %q, want the snapshot value", keys[i], got)
		}
	}
	for i := surviving; i < int64(len(keys)); i++ {
		if got := db.Store().Get(string(keys[i])); got != nil {
			t.Errorf("store[%s] = %q, want absent (past the damage point)", keys[i], got)
		}
	}
	if got := db.Store().Get("w00"); !bytes.Equal(got, []byte("wal-value")) {
		t.Errorf("store[w00] = %q, want the wal value", got)
	}
}

// TestRecoverDegradedCorruptWALFrame: a WAL segment whose tail is garbage
// (a torn frame mid-segment) must replay its valid prefix, note the exact
// segment index and byte offset in Degraded, and keep WALTruncatedAt
// consistent with the note.
func TestRecoverDegradedCorruptWALFrame(t *testing.T) {
	mkrec := func(i int) []byte {
		return wal.AppendRecord(nil, wal.OpSet,
			[]byte(fmt.Sprintf("k%02d", i)), bytes.Repeat([]byte{byte('a' + i)}, 20))
	}
	seg0 := append(mkrec(0), mkrec(1)...)
	seg1 := append(mkrec(2), mkrec(3)...)
	// Non-zero garbage after the valid prefix: the decoder must classify
	// the tail as corruption, not clean trailing-zero padding.
	corrupt := append(append([]byte(nil), seg1...), bytes.Repeat([]byte{0xde}, 17)...)

	log := walOf(seg0, corrupt)
	prefix := log[1].Prefix
	if !log[1].Corrupt || log[1].Count() != 2 || prefix != int64(len(seg1)) {
		t.Fatalf("test segment not torn as intended: %d recs, prefix %d, corrupt %v", log[1].Count(), prefix, log[1].Corrupt)
	}

	db, entries, walRecs := recoverCanned(t, &Recovered{
		WAL:            log,
		WALTruncatedAt: prefix,
	})

	if entries != 0 {
		t.Errorf("recovered %d snapshot entries, want 0", entries)
	}
	if walRecs != 4 {
		t.Errorf("replayed %d wal records, want 4 (both segments' valid prefixes)", walRecs)
	}
	rec := db.LastRecovery()
	if rec == nil {
		t.Fatal("LastRecovery is nil after Recover")
	}
	want := fmt.Sprintf("wal segment 1: corrupt frame at byte %d (replayed 2 records)", prefix)
	if len(rec.Degraded) != 1 || rec.Degraded[0] != want {
		t.Errorf("Degraded = %q, want exactly [%q]", rec.Degraded, want)
	}
	if rec.WALTruncatedAt != int64(prefix) {
		t.Errorf("WALTruncatedAt = %d, want %d", rec.WALTruncatedAt, prefix)
	}
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("k%02d", i)
		if got := db.Store().Get(key); !bytes.Equal(got, bytes.Repeat([]byte{byte('a' + i)}, 20)) {
			t.Errorf("store[%s] = %q, want the replayed value", key, got)
		}
	}
}

// TestRecoverReplayAllocBudget pins the recovery copy rule from decode to
// store: a WAL record costs at most its key string, and the engine interns
// that once per distinct key. The decoder copies nothing, a superseded
// value goes into the store as a view, and each key's last value is copied
// into the arena's pool segments, no heap. The records overwrite a handful
// of keys, so a record costs nothing beyond amortized growth, and the fixed
// cost of a recovery run (engine, process, the keys' strings, the arena's
// first segments) is measured on a short segment and subtracted.
func TestRecoverReplayAllocBudget(t *testing.T) {
	segment := func(n int) []byte {
		var seg []byte
		for i := 0; i < n; i++ {
			seg = wal.AppendRecord(seg, wal.OpSet, []byte(fmt.Sprintf("k%d", i%8)), bytes.Repeat([]byte{byte(i)}, 512))
		}
		return seg
	}
	const short, long = 64, 4096
	run := func(seg []byte) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, _, recs := recoverCanned(t, &Recovered{WAL: walOf(seg), WALTruncatedAt: -1}); recs == 0 {
				t.Fatal("nothing replayed")
			}
		})
	}
	base, full := run(segment(short)), run(segment(long))
	if perRecord := (full - base) / (long - short); perRecord > 0.01 {
		t.Fatalf("WAL replay allocates %.3f per record (%.0f for %d records vs %.0f for %d), budget 0.01: the key string, interned once per key",
			perRecord, full, long, base, short)
	}
}
