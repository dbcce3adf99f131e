// Package ssd provides the NVMe-style front-end over a flash translation
// layer: page-granular read/write/deallocate commands with an
// optional FDP placement identifier, per-command controller overhead, and
// injected garbage-collection pressure for the paper's "under GC" scenarios.
//
// The front-end is deliberately thin: queueing happens on the NAND die and
// channel timelines below, and path-specific behaviour (page cache, I/O
// scheduler, io_uring rings) lives in the kernelio and uring packages above.
package ssd

import (
	"fmt"

	"github.com/slimio/slimio/internal/bufpool"
	"github.com/slimio/slimio/internal/fdp"
	"github.com/slimio/slimio/internal/nand"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/vtrace"
)

// FTL is the translation-layer contract the device front-end drives.
// fdp.FTL (flexible data placement), fdp.Conventional (the same FTL with one
// placement stream, which ignores the identifier) and a tenant's Namespace
// window over either satisfy it.
//
// Write borrows data for the duration of the call: the NAND layer retains
// pooled segments it stores and the caller keeps its own reference, so the
// front-end never owns payload bytes. StoredRef is the other direction: the
// pooled page the NAND array stores for lpa (zero when unmapped), which a
// caller may Retain to keep a read's bytes without copying them.
type FTL interface {
	Write(now sim.Time, lpa int64, data bufpool.Ref, pid uint32) (done sim.Time, err error)
	Read(now sim.Time, lpa int64) (data []byte, done sim.Time, err error)
	Deallocate(lpa, count int64) error
	Capacity() int64
	PageSize() int
	BaseStats() fdp.BaseStats
	Array() *nand.Array
	Mapped(lpa int64) bool
	StoredRef(lpa int64) bufpool.Ref
}

// Config tunes the device front-end.
type Config struct {
	// CommandOverhead models NVMe controller processing per command
	// (submission decode, completion posting). Default 5 µs.
	CommandOverhead sim.Duration
	// Trace, when non-nil, records one ssd command span per
	// WritePages/ReadPages/WriteScattered (Arg = page count) and instants
	// for transient-error retries and terminal failures.
	Trace *vtrace.Tracer
}

func (c *Config) fillDefaults() {
	if c.CommandOverhead <= 0 {
		c.CommandOverhead = 5 * sim.Microsecond
	}
}

const (
	// maxRetries bounds per-page retries of transient device errors before
	// the command fails with the NVMe status of the last attempt.
	maxRetries = 5
	// retryBackoff is the delay before the first retry, doubling per attempt
	// — all in virtual time on the simulation clock.
	retryBackoff = 100 * sim.Microsecond
)

// IOStats counts front-end error handling.
type IOStats struct {
	ReadRetries   int64
	WriteRetries  int64
	ReadFailures  int64 // reads failed after exhausting retries
	WriteFailures int64 // writes failed with a device status (incl. torn)
}

// Device is a page-granular NVMe-ish block device over an FTL.
type Device struct {
	ftl FTL
	cfg Config
	io  IOStats
}

// New wraps an FTL as a Device.
func New(f FTL, cfg Config) *Device {
	cfg.fillDefaults()
	return &Device{ftl: f, cfg: cfg}
}

// FTL exposes the underlying translation layer (for stats and inspection).
func (d *Device) FTL() FTL { return d.ftl }

// IOStats reports front-end retry/failure counters.
func (d *Device) IOStats() IOStats { return d.io }

// Mapped reports whether lpa currently holds data (no media access).
func (d *Device) Mapped(lpa int64) bool { return d.ftl.Mapped(lpa) }

// StoredRef returns the page stored at lpa as the NAND array holds it (no
// media access, no reference taken; see FTL).
func (d *Device) StoredRef(lpa int64) bufpool.Ref { return d.ftl.StoredRef(lpa) }

// readPage reads one page, retrying transient device errors with exponential
// backoff on the virtual clock. The failed attempt's own completion time is
// the backoff base, so retries never rewind time.
func (d *Device) readPage(now sim.Time, lpa int64) ([]byte, sim.Time, error) {
	backoff := retryBackoff
	for attempt := 0; ; attempt++ {
		data, done, err := d.ftl.Read(now, lpa)
		if err == nil {
			return data, done, nil
		}
		if !nand.IsTransient(err) || attempt >= maxRetries {
			if nand.IsDeviceError(err) {
				d.io.ReadFailures++
				d.cfg.Trace.Instant("ssd", "read.fail", done, lpa)
			}
			return nil, done, err
		}
		d.io.ReadRetries++
		d.cfg.Trace.Instant("ssd", "read.retry", done, int64(attempt+1))
		now = done.Add(backoff)
		backoff *= 2
	}
}

// writePage writes one page with the same transient-retry policy. Permanent
// program failures never reach here — the FTL absorbs them by retiring the
// block and remapping — so terminal errors are torn writes (power loss) or
// model errors.
func (d *Device) writePage(now sim.Time, lpa int64, data bufpool.Ref, pid uint32) (sim.Time, error) {
	backoff := retryBackoff
	for attempt := 0; ; attempt++ {
		done, err := d.ftl.Write(now, lpa, data, pid)
		if err == nil {
			return done, nil
		}
		if !nand.IsTransient(err) || attempt >= maxRetries {
			if nand.IsDeviceError(err) {
				d.io.WriteFailures++
				d.cfg.Trace.Instant("ssd", "write.fail", done, lpa)
			}
			return done, err
		}
		d.io.WriteRetries++
		d.cfg.Trace.Instant("ssd", "write.retry", done, int64(attempt+1))
		now = done.Add(backoff)
		backoff *= 2
	}
}

// Capacity reports the device size in pages.
func (d *Device) Capacity() int64 { return d.ftl.Capacity() }

// PageSize reports the page size in bytes.
func (d *Device) PageSize() int { return d.ftl.PageSize() }

// Stats reports host-visible FTL counters.
func (d *Device) Stats() fdp.BaseStats { return d.ftl.BaseStats() }

// WritePages issues one write command covering len(pages) consecutive
// logical pages starting at lpa, tagged with pid, and returns the command's
// completion time. Pages fan out to the FTL back to back, so die striping
// below provides the parallelism; the command completes when its last page
// is durable. Page refs are borrowed: the caller still owns its references
// when WritePages returns (retries re-submit the same ref).
func (d *Device) WritePages(now sim.Time, lpa int64, pages []bufpool.Ref, pid uint32) (cmdDone sim.Time, err error) {
	return d.writeCommand(now, "write", len(pages), func(i int) (int64, bufpool.Ref, uint32) {
		return lpa + int64(i), pages[i], pid
	})
}

// writeCommand is the one write-command loop: a span named name around n
// page writes, page(i) naming the i-th page's LPA, data and PID. The pages
// fan out to the FTL back to back from the command's start, and the command
// completes when its last page is durable, or fails at the first page that
// fails.
func (d *Device) writeCommand(now sim.Time, name string, n int, page func(i int) (int64, bufpool.Ref, uint32)) (cmdDone sim.Time, err error) {
	if n == 0 {
		return now, nil
	}
	tr := d.cfg.Trace
	parent := tr.Scope()
	span := tr.Begin("ssd", name, parent, now)
	tr.SetArg(span, int64(n))
	tr.SetScope(span)
	defer func() {
		tr.End(span, cmdDone)
		tr.SetScope(parent)
	}()
	start := now.Add(d.cfg.CommandOverhead)
	end := start
	for i := 0; i < n; i++ {
		lpa, data, pid := page(i)
		if len(data.B) > d.PageSize() {
			return now, fmt.Errorf("ssd: page at LPA %d is %d bytes, page size %d", lpa, len(data.B), d.PageSize())
		}
		done, err := d.writePage(start, lpa, data, pid)
		end = max(end, done)
		if err != nil {
			return end, err
		}
	}
	return end, nil
}

// ReadPages issues one read command covering n consecutive logical pages
// starting at lpa. It returns the page contents and the completion time.
func (d *Device) ReadPages(now sim.Time, lpa int64, n int64) (pages [][]byte, cmdDone sim.Time, err error) {
	tr := d.cfg.Trace
	parent := tr.Scope()
	span := tr.Begin("ssd", "read", parent, now)
	tr.SetArg(span, n)
	tr.SetScope(span)
	defer func() {
		tr.End(span, cmdDone)
		tr.SetScope(parent)
	}()
	start := now.Add(d.cfg.CommandOverhead)
	end := start
	out := make([][]byte, 0, n)
	for i := int64(0); i < n; i++ {
		data, done, err := d.readPage(start, lpa+i)
		if err != nil {
			return nil, now, err
		}
		if done > end {
			end = done
		}
		out = append(out, data)
	}
	return out, end, nil
}

// Deallocate issues a TRIM for count pages starting at lpa.
func (d *Device) Deallocate(lpa, count int64) error {
	return d.ftl.Deallocate(lpa, count)
}

// Write is the blocking form of WritePages for simulation processes: the
// calling process sleeps until the command completes.
func (d *Device) Write(env *sim.Env, lpa int64, pages []bufpool.Ref, pid uint32) error {
	done, err := d.WritePages(env.Now(), lpa, pages, pid)
	if err != nil {
		return err
	}
	env.Sleep(done.Sub(env.Now()))
	return nil
}

// Read is the blocking form of ReadPages.
func (d *Device) Read(env *sim.Env, lpa int64, n int64) ([][]byte, error) {
	data, done, err := d.ReadPages(env.Now(), lpa, n)
	if err != nil {
		return nil, err
	}
	env.Sleep(done.Sub(env.Now()))
	return data, nil
}

// PageWrite names one page of a scattered write command, optionally tagged
// with a per-page FDP placement identifier (used by the FDP-aware-filesystem
// ablation; plain kernel-path writes leave it zero). Data is borrowed for
// the duration of the command.
type PageWrite struct {
	LPA  int64
	Data bufpool.Ref
	PID  uint32
}

// WriteScattered issues one command writing a set of (possibly
// non-contiguous) pages, as produced by filesystem writeback batching. The
// command completes when its last page is durable.
func (d *Device) WriteScattered(now sim.Time, pages []PageWrite) (cmdDone sim.Time, err error) {
	return d.writeCommand(now, "write.scattered", len(pages), func(i int) (int64, bufpool.Ref, uint32) {
		return pages[i].LPA, pages[i].Data, pages[i].PID
	})
}

// InjectGCPressure puts the device under sustained internal garbage
// collection: every period, duty×period of controller work is booked on
// every die, delaying host commands behind it. This reproduces the paper's
// "under GC" scenarios directly — at heavily scaled-down capacities the
// free-space dynamics that cause organic steady-state GC cannot form, so
// the pressure is injected and documented as a substitution (DESIGN.md).
// The returned stop function ends the injection.
func (d *Device) InjectGCPressure(eng *sim.Engine, duty float64, period sim.Duration) (stop func()) {
	if duty < 0 {
		duty = 0
	}
	if duty > 0.9 {
		duty = 0.9
	}
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		d.ftl.Array().OccupyAllDies(eng.Now(), sim.Duration(float64(period)*duty))
		eng.After(period, tick)
	}
	eng.After(period, tick)
	return func() { stopped = true }
}
