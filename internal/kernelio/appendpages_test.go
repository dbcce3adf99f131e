package kernelio

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"github.com/slimio/slimio/internal/bufpool"
	"github.com/slimio/slimio/internal/nand"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/wal"
)

// twinObs is what one twin shows after one call: the clock, the counters,
// the file size and a digest of every cached page — index, state flags and
// all of its bytes, including those past the end of file.
type twinObs struct {
	call  string
	now   sim.Time
	stats FSStats
	size  int64
	cache [sha256.Size]byte
}

func cacheDigest(f *File) [sha256.Size]byte {
	h := sha256.New()
	var hdr [11]byte
	for idx, pg := range f.pages {
		if pg == nil {
			continue
		}
		binary.LittleEndian.PutUint64(hdr[:8], uint64(idx))
		for i, flag := range []bool{pg.dirty, pg.inflight, pg.shared} {
			hdr[8+i] = 0
			if flag {
				hdr[8+i] = 1
			}
		}
		h.Write(hdr[:])
		h.Write(pg.data)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// twinScript drives one twin of TestAppendPagesMatchesWrite: a file with a
// random starting state, then rounds of random WAL records drained from a
// real wal.Buffer and appended with AppendPages (pages) or Write of the
// flattened chain (!pages), with fsyncs at random points. Both twins draw
// the same random numbers, so they make the same calls. It returns what the
// twin showed after every call, the bytes read back after a remount and how
// many segments became cache pages.
func twinScript(t *testing.T, seed int64, pages bool) (obs []twinObs, back []byte, adopted int) {
	t.Helper()
	eng, dev, fs := newRemountRig(t)
	pool := dev.FTL().Array().Pool()
	ps := int(fs.pageSize())
	rng := rand.New(rand.NewSource(seed))
	buf := wal.NewBuffer(pool)
	var f *File
	observe := func(env *sim.Env, call string) {
		obs = append(obs, twinObs{call, env.Now(), fs.Stats(), f.Size(), cacheDigest(f)})
	}
	fsync := func(env *sim.Env) bool {
		if err := f.Fsync(env); err != nil {
			t.Error(err)
			return false
		}
		observe(env, "fsync")
		return true
	}
	eng.Spawn("writer", func(env *sim.Env) {
		var err error
		if f, err = fs.Create("wal"); err != nil {
			t.Error(err)
			return
		}
		// Starting state: empty or whole pages, where the buffer's segments
		// line up with the file's pages, or a few pages whose tail may be cut
		// mid-page (recovery's Truncate) and may have left the cache (a cold
		// tail page), where no span lands page-aligned.
		n := []int{0, ps * (1 + rng.Intn(3)), rng.Intn(3 * ps)}[rng.Intn(3)]
		if n > 0 {
			junk := make([]byte, n)
			rng.Read(junk)
			if err := f.Write(env, 0, junk); err != nil {
				t.Error(err)
				return
			}
			observe(env, "write start")
			if !fsync(env) {
				return
			}
			if rng.Intn(2) == 0 {
				f.Truncate(int64(rng.Intn(n + 1)))
			}
			if rng.Intn(2) == 0 {
				fs.DropCaches()
			}
			observe(env, "truncate/drop")
		}
		for round := 0; round < 40; round++ {
			for i := rng.Intn(6); i >= 0; i-- {
				value := make([]byte, rng.Intn(2*ps))
				rng.Read(value)
				buf.Append(wal.OpSet, []byte(fmt.Sprintf("k%d.%d", round, i)), value)
			}
			// An fsync here finds the records just buffered already sitting in
			// the producer's tail segment, past the last append's end.
			if rng.Intn(4) == 0 && !fsync(env) {
				return
			}
			c := buf.Drain()
			if pages {
				given := append([]*bufpool.Segment(nil), c.Segs...)
				lens := make([]int, len(c.Segs))
				for i := range c.Segs {
					lens[i] = len(c.Span(i))
				}
				pos := f.Size()
				err = f.AppendPages(env, c.Segs, c.Off, c.End)
				for _, s := range c.Segs {
					if s != nil {
						t.Errorf("round %d: AppendPages returned without taking over every reference", round)
						return
					}
				}
				// A span's segment sits at its own file page only if adopted: a
				// copied span's segment is released after the copy, so the pool
				// can recycle it only for a later page.
				for i, s := range given {
					if pg := f.page(pos / int64(ps)); pg != nil && pg.seg == s {
						adopted++
					}
					pos += int64(lens[i])
				}
			} else {
				var flat []byte
				for i := range c.Segs {
					flat = append(flat, c.Span(i)...)
				}
				c.Release()
				err = f.Append(env, flat)
			}
			if err != nil {
				t.Error(err)
				return
			}
			observe(env, fmt.Sprintf("append %d", round))
			if rng.Intn(4) == 0 && !fsync(env) {
				return
			}
		}
		fsync(env)
	})
	eng.Run()
	buf.Close()

	eng2 := sim.NewEngine()
	nfs := fs.Remount(eng2)
	eng2.Spawn("reader", func(env *sim.Env) {
		g, err := nfs.Open("wal")
		if err != nil {
			t.Error(err)
			return
		}
		if back, err = readAt(env, g, 0, int(g.Size())); err != nil {
			t.Error(err)
		}
	})
	eng2.Run()
	fs.Close()
	nfs.Close()
	dev.FTL().Array().ReleaseStored()
	if n := pool.InFlight(); n != 0 {
		t.Errorf("%d pooled segments in flight after Close", n)
	}
	return obs, back, adopted
}

// AppendPages must be Write of the flattened chain in everything the model
// sees: the same virtual time after every call, the same counters, the same
// cache contents byte for byte (padding included) and the same bytes after
// a remount — whichever pages it adopted instead of copying.
func TestAppendPagesMatchesWrite(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 8
	}
	adopted := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		ref, refBack, _ := twinScript(t, seed, false)
		got, gotBack, n := twinScript(t, seed, true)
		adopted += n
		if len(got) != len(ref) {
			t.Fatalf("seed %d: %d calls with AppendPages, %d with Write", seed, len(got), len(ref))
		}
		for i := range ref {
			if g, w := got[i], ref[i]; g != w {
				t.Fatalf("seed %d, after call %d (%s): AppendPages shows time %v, size %d, stats %+v, cache %x; Write shows %v, %d, %+v, %x",
					seed, i, w.call, g.now, g.size, g.stats, g.cache[:4], w.now, w.size, w.stats, w.cache[:4])
			}
		}
		if !bytes.Equal(gotBack, refBack) {
			t.Fatalf("seed %d: bytes read back after remount differ", seed)
		}
	}
	if adopted == 0 {
		t.Fatal("no AppendPages call adopted a page; the rig exercises only the copy path")
	}
	t.Logf("%d pages adopted", adopted)
}

// A power cut that freezes the writer at the dirty-throttle wait right after
// AppendPages adopted whole pages must leave each reference in exactly one
// place: adopted pages in the cache, copied segments already released, no
// slot left for the caller. Close then drains the pool.
func TestAppendPagesFrozenAtThrottle(t *testing.T) {
	dev := newConvDevice(t, nand.Geometry{Channels: 2, DiesPerChannel: 2, BlocksPerDie: 16, PagesPerBlock: 8, PageSize: 512})
	eng := sim.NewEngine()
	costs := DefaultCosts()
	costs.DirtyBackgroundPages, costs.DirtyThrottlePages = 2, 4
	fs := NewFilesystem(eng, dev, F2FS(), SchedNone, costs)
	pool := fs.pool
	ps := pool.SegSize()
	var segs []*bufpool.Segment
	for i := 0; i < 6; i++ {
		s := pool.Get()
		copy(s.Bytes(), bytes.Repeat([]byte{byte('a' + i)}, ps))
		segs = append(segs, s)
	}
	adoptable := append([]*bufpool.Segment(nil), segs[:5]...) // the sixth is cut short, so it is copied
	eng.Spawn("writer", func(env *sim.Env) {
		f, err := fs.Create("wal")
		if err != nil {
			t.Error(err)
			return
		}
		if err := f.AppendPages(env, segs, 0, ps/3); err != nil { // never returns
			t.Error(err)
		}
	})
	for now := sim.Time(0); fs.stats.ThrottleStalls == 0; {
		if now > sim.Time(sim.Second) {
			t.Fatal("the writer never reached the throttle wait")
		}
		now = now.Add(100 * sim.Nanosecond)
		eng.RunUntil(now)
	}
	f := fs.files["wal"]
	for i, s := range adoptable {
		if pg := f.page(int64(i)); pg == nil || pg.seg != s {
			t.Fatalf("page %d is not the adopted segment", i)
		}
	}
	for i, s := range segs {
		if s != nil {
			t.Fatalf("slot %d still holds a reference after the pages were taken over", i)
		}
	}
	eng.Shutdown()
	fs.Close()
	dev.FTL().Array().ReleaseStored()
	if n := pool.InFlight(); n != 0 {
		t.Fatalf("%d pooled segments in flight after Close", n)
	}
}

// An append that fails leaves every reference with the caller.
func TestAppendPagesErrorKeepsReferences(t *testing.T) {
	eng, dev, fs := newRemountRig(t)
	pool := dev.FTL().Array().Pool()
	segs := []*bufpool.Segment{pool.Get(), pool.Get()}
	eng.Spawn("writer", func(env *sim.Env) {
		f, err := fs.Create("wal")
		if err != nil {
			t.Error(err)
			return
		}
		if err := fs.Delete(env, "wal"); err != nil {
			t.Error(err)
			return
		}
		if err := f.AppendPages(env, segs, 0, pool.SegSize()); err == nil {
			t.Error("append to a deleted file succeeded")
		}
	})
	eng.Run()
	for i, s := range segs {
		if s == nil {
			t.Fatalf("slot %d was taken over by a failed append", i)
		}
		s.Release()
	}
	fs.Close()
	if n := pool.InFlight(); n != 0 {
		t.Fatalf("%d pooled segments in flight after Close", n)
	}
}
