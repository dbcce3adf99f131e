package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"github.com/slimio/slimio/internal/baseline"
	"github.com/slimio/slimio/internal/bufpool"
	"github.com/slimio/slimio/internal/core"
	"github.com/slimio/slimio/internal/exp"
	"github.com/slimio/slimio/internal/fdp"
	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/kernelio"
	"github.com/slimio/slimio/internal/nand"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/snapshot"
	"github.com/slimio/slimio/internal/ssd"
	"github.com/slimio/slimio/internal/telemetry"
	"github.com/slimio/slimio/internal/uring"
	"github.com/slimio/slimio/internal/vtrace"
	"github.com/slimio/slimio/internal/wal"
	"github.com/slimio/slimio/internal/workload"
)

// A probe times a fixed-count loop over one public hot call of a layer on a
// fresh instance. run builds the instance, then calls timed exactly once
// around the loop of n calls; building and tearing down stay outside.
type probe struct {
	name string
	n    int // calls per round at full scale
	run  func(n int, timed timedFn) error
}

// timedFn times loop, which makes units calls (or pages, or KiB).
type timedFn func(units int, loop func())

const (
	probeRounds      = 3        // rounds per probe; the median is reported
	probeDeviceBytes = 64 << 20 // the fresh device most probes build
)

// probes lists the layer probes in the order of the layers' depth. Each is
// reported as <name>_ns and <name>_allocs per call (per page or per KiB
// where the name says so).
var probes = []probe{
	{"sim.event", 1_000_000, probeSimEvent},
	{"sim.switch", 400_000, probeSimSwitch},
	{"bufpool.get_release", 2_000_000, probeBufpool},
	{"wal.append", 100_000, probeWALAppend},
	{"wal.drain", 400_000, probeWALDrain},
	{"uring.write_sqpoll", 20_000, func(n int, t timedFn) error { return probeUringWrite(n, t, true) }},
	{"uring.write_syscall", 20_000, func(n int, t timedFn) error { return probeUringWrite(n, t, false) }},
	{"core.wal_append_sync", 4_000, probeCoreWAL},
	{"core.snapshot_chunk", 150, probeCoreSnapshot},
	{"kernelio.append", 8_000, func(n int, t timedFn) error { return probeKernelio(n, t, false) }},
	{"kernelio.fsync", 3_000, func(n int, t timedFn) error { return probeKernelio(n, t, true) }},
	{"baseline.wal_append_sync", 3_000, probeBaselineWAL},
	{"fdp.conv_write", 200_000, func(n int, t timedFn) error { return probeFTLWrite(n, t, true, false) }},
	{"snapshot.add", 4_000, probeSnapshotAdd},
	{"snapshot.read", 4_000, probeSnapshotRead},
	{"imdb.store_set", 1_000_000, probeStoreSet},
	{"imdb.store_get", 2_000_000, probeStoreGet},
	{"workload.get_op", 100_000, probeWorkloadGet},
	{"nand.program", 0, probeNANDProgram},
	{"nand.read", 0, probeNANDRead},
	{"nand.erase", 0, probeNANDErase},
	{"fdp.write", 0, func(n int, t timedFn) error { return probeFTLWrite(n, t, false, false) }},
	{"fdp.write_reclaim", 100_000, func(n int, t timedFn) error { return probeFTLWrite(n, t, false, true) }},
	{"ssd.write_pages_1", 128_000, func(n int, t timedFn) error { return probeSSDWrite(n, t, 1) }},
	{"ssd.write_pages_8", 128_000, func(n int, t timedFn) error { return probeSSDWrite(n, t, 8) }},
	{"ssd.write_pages_64", 128_000, func(n int, t timedFn) error { return probeSSDWrite(n, t, 64) }},
	{"ssd.namespace_write", 100_000, probeNamespaceWrite},
	{"vtrace.span", 500_000, probeVtraceSpan},
	{"telemetry.sample", 5_000, probeTelemetrySample},
}

// runProbes runs every probe and returns <name>_ns and <name>_allocs.
// scale shrinks the loop counts for smoke runs.
func runProbes(scale float64) (map[string]float64, error) {
	out := make(map[string]float64, 2*len(probes))
	for _, p := range probes {
		n := int(float64(p.n) * scale)
		if p.n > 0 && n < 16 {
			n = 16
		}
		var ns, allocs []float64
		for round := 0; round < probeRounds; round++ {
			timedLoops := 0
			err := p.run(n, func(units int, loop func()) {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				t := time.Now()
				loop()
				d := time.Since(t)
				runtime.ReadMemStats(&m1)
				timedLoops++
				ns = append(ns, float64(d.Nanoseconds())/float64(units))
				allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(units))
			})
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", p.name, err)
			}
			if timedLoops != 1 {
				return nil, fmt.Errorf("probe %s timed %d loops, want 1", p.name, timedLoops)
			}
		}
		out[p.name+"_ns"] = median(ns)
		out[p.name+"_allocs"] = median(allocs)
	}
	return out, nil
}

func halfRandom(rng *rand.Rand, size int) []byte {
	b := make([]byte, size)
	rng.Read(b[:size/2])
	return b
}

func probeKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%08d", i)
	}
	return keys
}

func probeSimEvent(n int, timed timedFn) error {
	eng := sim.NewEngine()
	left := n
	var tick func()
	tick = func() {
		if left--; left > 0 {
			eng.After(10, tick)
		}
	}
	eng.After(10, tick)
	timed(n, func() { eng.Run() })
	return nil
}

func probeSimSwitch(n int, timed timedFn) error {
	eng := sim.NewEngine()
	eng.Spawn("probe", func(env *sim.Env) {
		for i := 0; i < n; i++ {
			env.Sleep(1)
		}
	})
	timed(n, func() { eng.Run() })
	return nil
}

func probeBufpool(n int, timed timedFn) error {
	pool := bufpool.New(4096)
	timed(n, func() {
		for i := 0; i < n; i++ {
			pool.Get().Release()
		}
	})
	pool.Close()
	return nil
}

func probeWALAppend(n int, timed timedFn) error {
	pool := bufpool.New(4096)
	buf := wal.NewBuffer(pool)
	value := halfRandom(rand.New(rand.NewSource(1)), 4096)
	keys := probeKeys(1024)
	timed(n, func() {
		for i := 0; i < n; i++ {
			buf.AppendString(wal.OpSet, keys[i%len(keys)], value)
			if i%64 == 63 {
				c := buf.Drain()
				c.Release()
			}
		}
	})
	buf.Close()
	pool.Close()
	return nil
}

// probeWALDrain times Drain with one small record appended before each, the
// Always-Log shape: the tail segment stays shared across drains.
func probeWALDrain(n int, timed timedFn) error {
	pool := bufpool.New(4096)
	buf := wal.NewBuffer(pool)
	value := make([]byte, 64)
	timed(n, func() {
		for i := 0; i < n; i++ {
			buf.AppendString(wal.OpSet, "00000001", value)
			c := buf.Drain()
			c.Release()
		}
	})
	buf.Close()
	pool.Close()
	return nil
}

// probeDevice builds a fresh 64 MiB device on eng's clock.
func probeDevice(clock nand.Clock, conventional bool) (*ssd.Device, error) {
	arr, err := nand.New(nand.DefaultGeometry(probeDeviceBytes), nand.DefaultLatencies())
	if err != nil {
		return nil, err
	}
	arr.SetClock(clock)
	var f ssd.FTL
	if conventional {
		f, err = fdp.NewConventional(arr, fdp.Config{})
	} else {
		f, err = fdp.New(arr, fdp.Config{})
	}
	if err != nil {
		return nil, err
	}
	return ssd.New(f, ssd.Config{}), nil
}

// closeProbeDevice releases the array's pages and checks the pool drained.
func closeProbeDevice(dev *ssd.Device) error {
	arr := dev.FTL().Array()
	arr.ReleaseStored()
	if n := arr.Pool().InFlight(); n != 0 {
		return fmt.Errorf("%d pooled segments leaked", n)
	}
	arr.Pool().Close()
	return nil
}

// inProcess runs fn, which makes n calls, as the only simulated process of
// eng and reports the error it returned.
func inProcess(eng *sim.Engine, n int, timed timedFn, fn func(env *sim.Env) error) error {
	var err error
	eng.Spawn("probe", func(env *sim.Env) { err = fn(env) })
	timed(n, func() { eng.Run() })
	eng.Shutdown()
	return err
}

// probeUringWrite times a blocking one-page ring write over a 1024-page
// range that is overwritten in place, so reclaim finds only empty units.
func probeUringWrite(n int, timed timedFn, sqpoll bool) error {
	eng := sim.NewEngine()
	dev, err := probeDevice(eng, false)
	if err != nil {
		return err
	}
	ring := uring.NewRing(eng, dev, "probe", uring.Config{SQPoll: sqpoll})
	pool := dev.FTL().Array().Pool()
	err = inProcess(eng, n, timed, func(env *sim.Env) error {
		pages := make([]bufpool.Ref, 1)
		for i := 0; i < n; i++ {
			seg := pool.Get() // the ring takes this reference
			pages[0] = bufpool.Ref{Seg: seg, B: seg.Bytes()}
			if err := ring.Write(env, int64(i%1024), pages, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return closeProbeDevice(dev)
}

// probeCoreWAL times the Always-Log step on the SlimIO backend: one 4 KiB
// record drained from the engine-side buffer, WALAppend, WALSync.
func probeCoreWAL(n int, timed timedFn) error {
	eng := sim.NewEngine()
	dev, err := probeDevice(eng, false)
	if err != nil {
		return err
	}
	// Small slots leave the log region room for n page-sized records.
	be, err := core.New(eng, dev, core.Config{SlotPages: 256})
	if err != nil {
		return err
	}
	buf := wal.NewBuffer(dev.FTL().Array().Pool())
	value := halfRandom(rand.New(rand.NewSource(1)), 4096)
	err = inProcess(eng, n, timed, func(env *sim.Env) error {
		for i := 0; i < n; i++ {
			buf.AppendString(wal.OpSet, "00000001", value)
			if err := be.WALAppend(env, buf.Drain()); err != nil {
				return err
			}
			if err := be.WALSync(env); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	buf.Close()
	be.Close()
	return closeProbeDevice(dev)
}

// probeCoreSnapshot times one 64 KiB chunk through the Snapshot-Path sink,
// with the commit that reaps the ring included in the loop.
func probeCoreSnapshot(n int, timed timedFn) error {
	eng := sim.NewEngine()
	dev, err := probeDevice(eng, false)
	if err != nil {
		return err
	}
	be, err := core.New(eng, dev, core.Config{SlotPages: int64(n+1) * 16})
	if err != nil {
		return err
	}
	chunk := halfRandom(rand.New(rand.NewSource(1)), 64<<10)
	err = inProcess(eng, n, timed, func(env *sim.Env) error {
		sink, err := be.BeginSnapshot(env, imdb.OnDemandSnapshot)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if err := sink.Write(env, chunk); err != nil {
				return err
			}
		}
		return sink.Commit(env)
	})
	if err != nil {
		return err
	}
	be.Close()
	return closeProbeDevice(dev)
}

func probeFilesystem(eng *sim.Engine) (*kernelio.Filesystem, error) {
	dev, err := probeDevice(eng, true)
	if err != nil {
		return nil, err
	}
	return kernelio.NewFilesystem(eng, dev, kernelio.F2FS(), kernelio.SchedNone, kernelio.DefaultCosts()), nil
}

// probeKernelio times a 4 KiB append to a file, alone or followed by fsync.
func probeKernelio(n int, timed timedFn, fsync bool) error {
	eng := sim.NewEngine()
	fs, err := probeFilesystem(eng)
	if err != nil {
		return err
	}
	f, err := fs.Create("probe")
	if err != nil {
		return err
	}
	data := halfRandom(rand.New(rand.NewSource(1)), 4096)
	err = inProcess(eng, n, timed, func(env *sim.Env) error {
		for i := 0; i < n; i++ {
			if err := f.Append(env, data); err != nil {
				return err
			}
			if fsync {
				if err := f.Fsync(env); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	fs.Close()
	return closeProbeDevice(fs.Device())
}

func probeBaselineWAL(n int, timed timedFn) error {
	eng := sim.NewEngine()
	fs, err := probeFilesystem(eng)
	if err != nil {
		return err
	}
	be, err := baseline.New(fs)
	if err != nil {
		return err
	}
	buf := wal.NewBuffer(fs.Device().FTL().Array().Pool())
	value := halfRandom(rand.New(rand.NewSource(1)), 4096)
	err = inProcess(eng, n, timed, func(env *sim.Env) error {
		for i := 0; i < n; i++ {
			buf.AppendString(wal.OpSet, "00000001", value)
			if err := be.WALAppend(env, buf.Drain()); err != nil {
				return err
			}
			if err := be.WALSync(env); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	buf.Close()
	be.Close()
	return closeProbeDevice(fs.Device())
}

// ftlWriter issues one-page writes on a caller-held clock at queue depth 1.
type ftlWriter struct {
	f    ssd.FTL
	clk  *vclock
	page bufpool.Ref
}

func newFTLWriter(conventional bool) (*ftlWriter, *ssd.Device, error) {
	clk := &vclock{}
	dev, err := probeDevice(clk, conventional)
	if err != nil {
		return nil, nil, err
	}
	page := bufpool.Borrowed(halfRandom(rand.New(rand.NewSource(1)), dev.PageSize()))
	return &ftlWriter{f: dev.FTL(), clk: clk, page: page}, dev, nil
}

func (w *ftlWriter) write(lpa int64) error {
	done, err := w.f.Write(w.clk.t, lpa, w.page, 0)
	w.clk.t = done
	return err
}

// probeFTLWrite times FTL.Write. Plain: every LPA of a fresh device once
// (n is the capacity; no reclaim). Conventional: in-place overwrite of a
// range, reclaim finds empty units. Reclaim: random overwrite of a 90 % full
// device in steady state, so each reclaim migrates valid pages.
func probeFTLWrite(n int, timed timedFn, conventional, reclaim bool) error {
	w, dev, err := newFTLWriter(conventional)
	if err != nil {
		return err
	}
	capacity := dev.Capacity()
	var werr error
	note := func(err error) {
		if err != nil && werr == nil {
			werr = err
		}
	}
	switch {
	case reclaim:
		fill := capacity * 9 / 10
		rng := rand.New(rand.NewSource(1))
		for lpa := int64(0); lpa < fill; lpa++ {
			note(w.write(lpa))
		}
		for i := int64(0); i < capacity; i++ { // reach steady state untimed
			note(w.write(rng.Int63n(fill)))
		}
		timed(n, func() {
			for i := 0; i < n; i++ {
				note(w.write(rng.Int63n(fill)))
			}
		})
	case conventional:
		span := capacity / 2
		timed(n, func() {
			for i := 0; i < n; i++ {
				note(w.write(int64(i) % span))
			}
		})
	default:
		timed(int(capacity), func() {
			for lpa := int64(0); lpa < capacity; lpa++ {
				note(w.write(lpa))
			}
		})
	}
	if werr != nil {
		return werr
	}
	return closeProbeDevice(dev)
}

// probeArray builds a fresh, erased array on a caller-held clock.
func probeArray() (*nand.Array, *vclock, error) {
	arr, err := nand.New(nand.DefaultGeometry(probeDeviceBytes), nand.DefaultLatencies())
	if err != nil {
		return nil, nil, err
	}
	clk := &vclock{}
	arr.SetClock(clk)
	return arr, clk, nil
}

func programAll(arr *nand.Array, clk *vclock, page bufpool.Ref) error {
	for ppa := nand.PPA(0); int64(ppa) < arr.Geometry().Pages(); ppa++ {
		done, err := arr.Program(clk.t, ppa, page)
		if err != nil {
			return err
		}
		clk.t = done
	}
	return nil
}

func closeProbeArray(arr *nand.Array) {
	arr.ReleaseStored()
	arr.Pool().Close()
}

func probeNANDProgram(_ int, timed timedFn) error {
	arr, clk, err := probeArray()
	if err != nil {
		return err
	}
	page := bufpool.Borrowed(halfRandom(rand.New(rand.NewSource(1)), arr.Geometry().PageSize))
	timed(int(arr.Geometry().Pages()), func() { err = programAll(arr, clk, page) })
	closeProbeArray(arr)
	return err
}

func probeNANDRead(_ int, timed timedFn) error {
	arr, clk, err := probeArray()
	if err != nil {
		return err
	}
	pages := arr.Geometry().Pages()
	page := bufpool.Borrowed(halfRandom(rand.New(rand.NewSource(1)), arr.Geometry().PageSize))
	if err := programAll(arr, clk, page); err != nil {
		return err
	}
	timed(int(pages), func() {
		for ppa := nand.PPA(0); int64(ppa) < pages; ppa++ {
			_, done, rerr := arr.Read(clk.t, ppa)
			if rerr != nil && err == nil {
				err = rerr
			}
			clk.t = done
		}
	})
	closeProbeArray(arr)
	return err
}

// probeNANDErase times erasing every block of a fully programmed array, so
// each erase releases a block's worth of stored pages.
func probeNANDErase(_ int, timed timedFn) error {
	arr, clk, err := probeArray()
	if err != nil {
		return err
	}
	geo := arr.Geometry()
	page := bufpool.Borrowed(halfRandom(rand.New(rand.NewSource(1)), geo.PageSize))
	if err := programAll(arr, clk, page); err != nil {
		return err
	}
	timed(geo.Blocks(), func() {
		for die := 0; die < geo.Dies(); die++ {
			for block := 0; block < geo.BlocksPerDie; block++ {
				done, eerr := arr.Erase(clk.t, die, block)
				if eerr != nil && err == nil {
					err = eerr
				}
				clk.t = done
			}
		}
	})
	closeProbeArray(arr)
	return err
}

// probeSSDWrite times WritePages commands of size pages each, n pages in
// all, overwriting half the device in place; reported per page.
func probeSSDWrite(n int, timed timedFn, size int) error {
	clk := &vclock{}
	dev, err := probeDevice(clk, false)
	if err != nil {
		return err
	}
	payload := halfRandom(rand.New(rand.NewSource(1)), dev.PageSize())
	refs := make([]bufpool.Ref, size)
	for i := range refs {
		refs[i] = bufpool.Borrowed(payload)
	}
	span := dev.Capacity() / 2 / int64(size) * int64(size)
	timed(n/size*size, func() {
		for i := 0; i < n/size; i++ {
			done, werr := dev.WritePages(clk.t, int64(i*size)%span, refs, 0)
			if werr != nil && err == nil {
				err = werr
			}
			clk.t = done
		}
	})
	if err != nil {
		return err
	}
	return closeProbeDevice(dev)
}

func probeNamespaceWrite(n int, timed timedFn) error {
	w, dev, err := newFTLWriter(false)
	if err != nil {
		return err
	}
	ns, err := ssd.NewNamespace(dev.FTL(), dev.Capacity()/4, dev.Capacity()/2, func(pid uint32) uint32 { return pid + 1 })
	if err != nil {
		return err
	}
	w.f = ns
	span := ns.Capacity() / 2
	timed(n, func() {
		for i := 0; i < n; i++ {
			if werr := w.write(int64(i) % span); werr != nil && err == nil {
				err = werr
			}
		}
	})
	if err != nil {
		return err
	}
	return closeProbeDevice(dev)
}

// snapshotEntries builds n 2 KiB half-compressible entries, the YCSB record.
func snapshotEntries(n int) (keys, values [][]byte, rawKiB int) {
	rng := rand.New(rand.NewSource(1))
	raw := 0
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("%08d", i))
		v := halfRandom(rng, 2048)
		keys, values = append(keys, k), append(values, v)
		raw += snapshot.EntrySize(k, v)
	}
	return keys, values, raw / 1024
}

// probeSnapshotAdd times Writer.Add over n entries (chunk compression
// included), per KiB of raw entry bytes.
func probeSnapshotAdd(n int, timed timedFn) error {
	keys, values, kib := snapshotEntries(n)
	w, err := snapshot.NewWriter(0, func([]byte, int) error { return nil })
	if err != nil {
		return err
	}
	timed(kib, func() {
		for i := range keys {
			if aerr := w.Add(keys[i], values[i]); aerr != nil && err == nil {
				err = aerr
			}
		}
		if cerr := w.Close(); cerr != nil && err == nil {
			err = cerr
		}
	})
	return err
}

// probeSnapshotRead times decoding the same image, per KiB of raw bytes.
func probeSnapshotRead(n int, timed timedFn) error {
	keys, values, kib := snapshotEntries(n)
	var image bytes.Buffer
	w, err := snapshot.NewWriter(0, func(chunk []byte, _ int) error {
		image.Write(chunk)
		return nil
	})
	if err != nil {
		return err
	}
	for i := range keys {
		if err := w.Add(keys[i], values[i]); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	timed(kib, func() {
		r := snapshot.NewReader(bytes.NewReader(image.Bytes()))
		for {
			if _, rerr := r.Next(); rerr != nil {
				if rerr != io.EOF {
					err = rerr
				}
				return
			}
		}
	})
	return err
}

func probeStoreSet(n int, timed timedFn) error {
	st := imdb.NewStore(4096)
	keys := probeKeys(10_000)
	value := make([]byte, 2048)
	timed(n, func() {
		for i := 0; i < n; i++ {
			st.Set(keys[i%len(keys)], value)
		}
	})
	return nil
}

func probeStoreGet(n int, timed timedFn) error {
	st := imdb.NewStore(4096)
	keys := probeKeys(10_000)
	value := make([]byte, 2048)
	for _, k := range keys {
		st.Set(k, value)
	}
	var sink []byte
	timed(n, func() {
		for i := 0; i < n; i++ {
			sink = st.Get(keys[i%len(keys)])
		}
	})
	if sink == nil {
		return fmt.Errorf("store lost a key")
	}
	return nil
}

// nullBackend accepts and forgets everything; GETs never reach a backend, so
// it isolates the client loop and the engine's command path.
type nullBackend struct{}

func (nullBackend) Label() string                             { return "null" }
func (nullBackend) WALAppend(_ *sim.Env, c wal.Chain) error   { c.Release(); return nil }
func (nullBackend) WALSync(*sim.Env) error                    { return nil }
func (nullBackend) WALDurableSize() int64                     { return 0 }
func (nullBackend) WALRotate(*sim.Env) error                  { return nil }
func (nullBackend) WALDiscardOld(*sim.Env) error              { return nil }
func (nullBackend) Recover(*sim.Env) (*imdb.Recovered, error) { return &imdb.Recovered{}, nil }
func (nullBackend) BeginSnapshot(*sim.Env, imdb.SnapshotKind) (imdb.SnapshotSink, error) {
	return nil, fmt.Errorf("null backend takes no snapshots")
}

// probeWorkloadGet times one zipfian GET end to end through workload.Start:
// key generation, request, engine event loop, reply. The key generator is not
// exported, so this is the closest public call to workload.keygen.
func probeWorkloadGet(n int, timed timedFn) error {
	eng := sim.NewEngine()
	db := imdb.New(eng, nullBackend{}, imdb.Config{}, nil)
	db.Start()
	cfg := workload.YCSBC(int64(n), 10_000)
	var perr error
	eng.Spawn("probe", func(env *sim.Env) {
		if perr = workload.Preload(env, db, cfg); perr != nil {
			return
		}
		timed(n, func() { workload.Start(eng, db, cfg).Done.Wait(env) })
		db.Shutdown(env)
	})
	eng.Run()
	eng.Shutdown()
	return perr
}

func probeVtraceSpan(n int, timed timedFn) error {
	tr := vtrace.New("probe")
	timed(n, func() {
		for i := 0; i < n; i++ {
			id := tr.Begin("probe", "span", 0, sim.Time(i))
			tr.End(id, sim.Time(i+1))
		}
	})
	if len(tr.Spans())+int(tr.Dropped()) != n {
		return fmt.Errorf("tracer saw %d spans, want %d", len(tr.Spans())+int(tr.Dropped()), n)
	}
	return nil
}

// probeTelemetrySample times one sampling tick over the full gauge set of a
// SlimIO stack.
func probeTelemetrySample(n int, timed timedFn) error {
	eng := sim.NewEngine()
	sc := exp.TinyScale()
	st, err := exp.BuildStack(eng, exp.SlimIOFDP, sc)
	if err != nil {
		return err
	}
	reg := telemetry.NewRegistry(sc.RPSInterval)
	cell := reg.Cell("probe")
	exp.AttachStackTelemetry(st, cell)
	timed(n, func() {
		for i := 0; i < n; i++ {
			cell.Sample(sim.Time(i) * sim.Time(sc.RPSInterval))
		}
	})
	if cell.Samples() != int64(n) {
		return fmt.Errorf("cell took %d samples, want %d", cell.Samples(), n)
	}
	eng.Shutdown()
	res := exp.CellResult{Label: "probe", Stack: st}
	return res.ReleaseHeavy()
}
