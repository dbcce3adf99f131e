package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"github.com/slimio/slimio/internal/bufpool"
	"github.com/slimio/slimio/internal/fdp"
	"github.com/slimio/slimio/internal/nand"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/ssd"
)

const (
	churnDeviceBytes = 320 << 20
	churnTinyBytes   = 64 << 20 // smoke test
	churnFill        = 0.85     // share of the LPA space preconditioned and overwritten
	churnHotShare    = 0.2      // the first 20 % of the filled range ...
	churnHotWrites   = 0.8      // ... takes 80 % of the commands: mixed lifetimes in one PID
	churnMaxCmd      = 64       // pages in the largest command
	churnHeader      = 12       // LPA (8 bytes) + version (4 bytes) stamped into each page
	// churnReadPasses full read-backs make the recovery time long enough to
	// measure; each pass verifies every page.
	churnReadPasses = 4
	// churnPagesPerSec sizes a repetition on the 2-core sandbox (pages ÷
	// host_total_s); the result never reads it.
	churnPagesPerSec = 690_000
)

// vclock is the caller-held virtual clock of the now-style device calls; the
// array reads it to decide when an erased page's buffer may be reused.
type vclock struct{ t sim.Time }

func (c *vclock) Now() sim.Time { return c.t }

// churnDevice drives an FDP device directly and remembers the version last
// written to each LPA, so the read-back can tell the newest page from a
// stale or misplaced one.
type churnDevice struct {
	dev   *ssd.Device
	ftl   *tracedFTL // nil untraced
	rec   *recorder
	clk   *vclock
	fill  int64
	ver   []uint32
	pages [][]byte // one payload per LPA residue; a command never repeats a residue
	refs  []bufpool.Ref

	failed int64
}

func newChurnDevice(deviceBytes, seed int64, rec *recorder) (*churnDevice, error) {
	arr, err := nand.New(nand.DefaultGeometry(deviceBytes), nand.DefaultLatencies())
	if err != nil {
		return nil, err
	}
	clk := &vclock{}
	arr.SetClock(clk)
	inner, err := fdp.New(arr, fdp.Config{})
	if err != nil {
		return nil, err
	}
	d := &churnDevice{rec: rec, clk: clk, refs: make([]bufpool.Ref, churnMaxCmd)}
	var f ssd.FTL = inner
	if rec != nil {
		d.ftl = &tracedFTL{FTL: inner, rec: rec}
		f = d.ftl
	}
	d.dev = ssd.New(f, ssd.Config{})
	d.fill = int64(float64(d.dev.Capacity())*churnFill) / churnMaxCmd * churnMaxCmd
	d.ver = make([]uint32, d.fill)
	rng := rand.New(rand.NewSource(seed ^ 0x9a9e))
	d.pages = make([][]byte, 4*churnMaxCmd)
	for i := range d.pages {
		d.pages[i] = make([]byte, d.dev.PageSize())
		rng.Read(d.pages[i][:d.dev.PageSize()/2])
	}
	return d, nil
}

func (d *churnDevice) payload(lpa int64) []byte { return d.pages[lpa%int64(len(d.pages))] }

// write issues one n-page command at lpa, stamping each page with its LPA
// and next version. The array copies borrowed pages, so the payloads are
// reusable as soon as the call returns.
func (d *churnDevice) write(lpa int64, n int) {
	for i := 0; i < n; i++ {
		l := lpa + int64(i)
		d.ver[l]++
		p := d.payload(l)
		binary.LittleEndian.PutUint64(p, uint64(l))
		binary.LittleEndian.PutUint32(p[8:], d.ver[l])
		d.refs[i] = bufpool.Borrowed(p)
	}
	var cmd openSpan
	if d.rec != nil {
		cmd = d.rec.begin("ssd.write_pages", d.rec.root, false, d.clk.t)
		d.ftl.cmd = cmd.id
	}
	done, err := d.dev.WritePages(d.clk.t, lpa, d.refs[:n], 0)
	if d.rec != nil {
		d.ftl.cmd = 0
		d.rec.end(cmd, done)
	}
	if err != nil {
		d.failed++
	}
	d.clk.t = done
}

// readBack reads every LPA of the filled range in 64-page commands and
// checks each page against the last version written there.
func (d *churnDevice) readBack() error {
	var firstErr error
	for lpa := int64(0); lpa < d.fill; lpa += churnMaxCmd {
		var cmd openSpan
		if d.rec != nil {
			cmd = d.rec.begin("ssd.read_pages", d.rec.root, false, d.clk.t)
			d.ftl.cmd = cmd.id
		}
		pages, done, err := d.dev.ReadPages(d.clk.t, lpa, churnMaxCmd)
		if d.rec != nil {
			d.ftl.cmd = 0
			d.rec.end(cmd, done)
		}
		if err != nil {
			d.failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("read back LPA %d: %w", lpa, err)
			}
			continue
		}
		d.clk.t = done
		for i, pg := range pages {
			l := lpa + int64(i)
			if firstErr != nil {
				break
			}
			switch {
			case binary.LittleEndian.Uint64(pg) != uint64(l):
				firstErr = fmt.Errorf("LPA %d returned the page of LPA %d", l, binary.LittleEndian.Uint64(pg))
			case binary.LittleEndian.Uint32(pg[8:]) != d.ver[l]:
				firstErr = fmt.Errorf("LPA %d returned version %d, last written %d",
					l, binary.LittleEndian.Uint32(pg[8:]), d.ver[l])
			case !bytes.Equal(pg[churnHeader:], d.payload(l)[churnHeader:]):
				firstErr = fmt.Errorf("LPA %d payload differs from what was written", l)
			}
		}
	}
	return firstErr
}

// runChurnRep preconditions a fresh device, overwrites it with pages page
// writes in random 1-, 8- and 64-page commands (equal page volume per size),
// reads everything back and tears down.
func runChurnRep(pages, seed int64, opt repOptions) (*repResult, error) {
	res := &repResult{counts: make(map[string]float64)}
	rec := opt.rec
	rep := rec.openRep()

	m0 := markHost()
	ph := rec.openPhase("setup", 0)
	deviceBytes := int64(churnDeviceBytes)
	if opt.tiny {
		deviceBytes = churnTinyBytes
	}
	d, err := newChurnDevice(deviceBytes, seed, rec)
	if err != nil {
		return nil, fmt.Errorf("build device: %w", err)
	}
	for lpa := int64(0); lpa < d.fill; lpa += churnMaxCmd {
		d.write(lpa, churnMaxCmd)
	}
	rec.closePhase(ph, d.clk.t)

	ph = rec.openPhase("run", d.clk.t)
	opt.prof.start()
	rng := rand.New(rand.NewSource(seed))
	hot := int64(float64(d.fill) * churnHotShare)
	mRun0, vRun0 := markHost(), d.clk.t
	nextSlice, sliceT := d.clk.t.Add(sliceWidth), time.Now()
	var written int64
	for written < pages {
		// 64 : 8 : 1 commands of 1, 8 and 64 pages carry equal page volume.
		n := 1
		switch r := rng.Intn(73); {
		case r >= 72:
			n = 64
		case r >= 64:
			n = 8
		}
		base, span := int64(0), hot
		if rng.Float64() >= churnHotWrites {
			base, span = hot, d.fill-hot
		}
		d.write(base+rng.Int63n(span-int64(n)+1), n)
		written += int64(n)
		if d.clk.t >= nextSlice {
			now := time.Now()
			res.slicesMs = append(res.slicesMs, float64(now.Sub(sliceT).Nanoseconds())/1e6)
			sliceT = now
			for nextSlice <= d.clk.t {
				nextSlice = nextSlice.Add(sliceWidth)
			}
		}
	}
	mRun1, vRun1 := markHost(), d.clk.t
	opt.prof.stop()
	rec.closePhase(ph, d.clk.t)

	ph = rec.openPhase("recover", d.clk.t)
	tRec := time.Now()
	for pass := 0; pass < churnReadPasses; pass++ {
		if err := d.readBack(); err != nil {
			res.checks = append(res.checks, err.Error())
			break
		}
	}
	recoverS := time.Since(tRec).Seconds()
	rec.closePhase(ph, d.clk.t)

	res.failed = d.failed
	res.setupS = mRun0.wall.Sub(m0.wall).Seconds()
	res.measured(written, mRun0, mRun1, vRun0, vRun1)
	res.recoverMs = recoverS * 1e3

	c := res.counts
	c["workload.ops"] = float64(written)
	c["workload.failed_ops"] = float64(d.failed)
	collectDeviceCounts(c, d.dev, d.clk.t)
	var sd digest
	var word [4]byte
	for _, v := range d.ver {
		binary.LittleEndian.PutUint32(word[:], v)
		sd.bytes(word[:])
	}
	res.storeDigest = uint64(sd)

	ph = rec.openPhase("teardown", d.clk.t)
	tTear := time.Now()
	arr := d.dev.FTL().Array()
	arr.ReleaseStored()
	pool := arr.Pool()
	c["bufpool.inflight_end"] = float64(pool.InFlight())
	if pool.InFlight() == 0 {
		pool.Close()
	} else {
		res.checks = append(res.checks, fmt.Sprintf("%d pooled segments leaked after teardown", pool.InFlight()))
	}
	teardownS := time.Since(tTear).Seconds()
	rec.closePhase(ph, d.clk.t)
	rec.closePhase(rep, d.clk.t)
	res.totalS = res.setupS + res.runS + recoverS + teardownS

	// Reclaim has to migrate only once the spare space is used up, so the
	// GC assertions apply from one full overwrite of the filled range on.
	if pages >= d.fill {
		if c["ssd.waf"] < 1.3 {
			res.checks = append(res.checks, fmt.Sprintf("ssd.waf = %v, want >= 1.3 under mixed-lifetime overwrite", c["ssd.waf"]))
		}
		if c["fdp.gc_copied_pages"] <= 0 {
			res.checks = append(res.checks, "fdp.gc_copied_pages == 0: reclaim never migrated a page")
		}
	}
	if written < pages {
		res.checks = append(res.checks, fmt.Sprintf("wrote %d pages, want %d", written, pages))
	}
	return res, nil
}
