// Package telemetry is the continuous system-state plane that complements
// vtrace's per-operation spans: a registry of virtual-time-sampled gauges
// answering "what was the system doing while that operation ran?" — per-die
// busy time, reclaim-unit occupancy, queue depths, dirty-page backlog,
// WAL-buffer fill, pooled-buffer in-flight counts.
//
// Sampling rides the simulation clock: each experiment cell owns a Cell
// whose probes are read by a self-rescheduling tick at a fixed virtual
// interval, so a dump is a pure function of the cell's seed — serial and
// parallel runs of the same experiment produce byte-identical dumps, and a
// dump is golden-testable like a trace.
//
// A Cell stores what it samples exactly once, in one table: a column per
// gauge, a row per tick. The JSON dump and the per-cell CSV are the rows,
// the OpenMetrics snapshot is the last row, and the flight record is the
// trailing rows.
//
// A nil *Registry hands out nil *Cells, and every Cell method nil-checks and
// returns immediately: with telemetry off, every hot path pays one
// predictable branch and allocates nothing — the same contract as vtrace's
// nil *Tracer.
//
// Each Cell is also a flight recorder: its most recent rows, together with
// the tail of the cell's vtrace spans, are dumped as JSON when something
// goes wrong mid-run (an unrecovered device fault, a crash-consistency
// oracle violation, a panicking cell) — the last-seconds state trajectory
// that explains the failure.
package telemetry

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"github.com/slimio/slimio/internal/metrics"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/vtrace"
)

// DefaultInterval is the sampling tick used when a Registry is built with
// no explicit interval: fine enough to resolve snapshot-period transients
// at small scale, coarse enough to keep dumps compact.
const DefaultInterval = 2 * sim.Millisecond

// DefaultFlightDepth is how many trailing samples a flight record carries.
const DefaultFlightDepth = 128

// DefaultFlightSpans is how many trailing vtrace spans a flight dump
// includes (when the cell has a tracer attached).
const DefaultFlightSpans = 256

// Registry collects the telemetry cells of a multi-cell experiment. Cells
// may run concurrently (each with its own Cell), so the registry is the
// only locked structure in the package. A nil *Registry hands out nil
// Cells, which keeps telemetry a single `if` away from free everywhere.
type Registry struct {
	// FlightDir, when non-empty, is where flight-recorder dumps are
	// written (one flight-<label>.json per triggering cell). Empty
	// disables dumping to disk.
	FlightDir string

	interval sim.Duration
	mu       sync.Mutex
	cells    map[string]*Cell
}

// NewRegistry returns an empty registry sampling at the given virtual
// interval (DefaultInterval when non-positive).
func NewRegistry(interval sim.Duration) *Registry {
	if interval <= 0 {
		interval = DefaultInterval
	}
	return &Registry{interval: interval}
}

// Interval reports the registry's sampling interval.
func (r *Registry) Interval() sim.Duration {
	if r == nil {
		return 0
	}
	return r.interval
}

// Cell returns the cell for label, creating it on first use. A nil registry
// returns a nil cell. Concurrent cells must use distinct labels (the same
// rule as vtrace tracer labels): a shared label would share one unlocked
// Cell across engines.
func (r *Registry) Cell(label string) *Cell {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cells == nil {
		r.cells = make(map[string]*Cell)
	}
	c, ok := r.cells[label]
	if !ok {
		c = &Cell{label: label, interval: r.interval, reg: r, maxRows: metrics.MaxSeriesBuckets}
		r.cells[label] = c
	}
	return c
}

// Labels returns the registered cell labels in sorted order — the export
// order, independent of registration (and hence scheduling) order.
func (r *Registry) Labels() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	labels := make([]string, 0, len(r.cells))
	for label := range r.cells {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	return labels
}

// Get returns the cell registered under label, or nil.
func (r *Registry) Get(label string) *Cell {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cells[label]
}

// probe is one sampling callback and the columns it fills: n of them,
// starting at off in registration order.
type probe struct {
	off, n int
	fn     func(now sim.Time, v []int64)
}

// Cell is one experiment cell's telemetry: a sample table (one named column
// per gauge, one row per tick) and histograms, both fed by probes that a
// virtual-time tick reads. Like a vtrace.Tracer it is unlocked — each cell
// runs on its own engine, which executes one process at a time. A nil *Cell
// is a no-op recorder.
type Cell struct {
	label    string
	interval sim.Duration
	reg      *Registry

	// names are the columns in registration order; probes fill scratch in
	// that order. The first sample freezes the schema: cols is names sorted
	// (the column order of every artifact) and perm[i] is the scratch index
	// of column i. late collects columns declared after that.
	names   []string
	probes  []probe
	scratch []int64
	cols    []string
	perm    []int
	late    []string

	// rows is the table: V has one value per column of cols. A tick that
	// cannot be stored — its time is negative or does not advance past the
	// last row's, or the table is at maxRows — is counted in dropped instead.
	rows    []Sample
	maxRows int
	dropped int64

	hists map[string]*metrics.Histogram

	// tracer, when non-nil, contributes its trailing spans to flight dumps.
	tracer *vtrace.Tracer

	// started guards against double Start (e.g. a stack-level attach
	// followed by a cell-level attach).
	started bool
	stopped bool
	samples int64
	dumped  bool
}

// Label reports the cell's label ("" for a nil cell).
func (c *Cell) Label() string {
	if c == nil {
		return ""
	}
	return c.label
}

// Samples reports how many ticks have run.
func (c *Cell) Samples() int64 {
	if c == nil {
		return 0
	}
	return c.samples
}

// Histogram returns the named histogram, creating it on first use. The
// log-bucketed metrics.Histogram is duration-typed but generic over int64
// magnitudes; telemetry uses it for value distributions such as per-RU
// valid-page counts (one Record per RU per tick).
func (c *Cell) Histogram(name string) *metrics.Histogram {
	if c == nil {
		return nil
	}
	if c.hists == nil {
		c.hists = make(map[string]*metrics.Histogram)
	}
	h, ok := c.hists[name]
	if !ok {
		h = &metrics.Histogram{}
		c.hists[name] = h
	}
	return h
}

// AddProbe registers a sampling callback, run once per tick in registration
// order, and declares the columns it fills: fn receives a zeroed v with one
// slot per name, in the order given. Probes must only read simulation state
// and record into v or the cell's histograms; they run inside the engine's
// event loop and must not block. The first sample (or export) freezes the
// schema: a probe added after it is not run, and Err reports its columns.
func (c *Cell) AddProbe(names []string, fn func(now sim.Time, v []int64)) {
	if c == nil {
		return
	}
	if c.cols != nil {
		c.late = append(c.late, names...)
		return
	}
	c.probes = append(c.probes, probe{off: len(c.names), n: len(names), fn: fn})
	c.names = append(c.names, names...)
}

// SetTracer attaches the cell's vtrace tracer so flight dumps can include
// the trailing spans alongside the trailing samples.
func (c *Cell) SetTracer(t *vtrace.Tracer) {
	if c == nil {
		return
	}
	c.tracer = t
}

// GaugeNames returns the cell's column names in sorted order: the schema of
// every artifact. Showing it freezes it, as the first sample does. The slice
// is the cell's own; callers must not modify it.
func (c *Cell) GaugeNames() []string {
	if c == nil {
		return nil
	}
	if c.cols == nil {
		c.freeze()
	}
	return c.cols
}

// HistNames returns the cell's histogram names in sorted order.
func (c *Cell) HistNames() []string {
	if c == nil {
		return nil
	}
	out := make([]string, 0, len(c.hists))
	for name := range c.hists {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Start schedules the sampling tick on eng: one sample at the current time,
// then one every interval until Stop (or until the engine is shut down).
// The tick is a plain timer callback — it reads state and reschedules, so
// attaching telemetry never changes any other process's event order, which
// is what keeps telemetered runs bit-identical to each other at any
// parallelism (the tick itself is deterministic: same interval, same
// probes, same engine).
func (c *Cell) Start(eng *sim.Engine) {
	if c == nil || c.started || len(c.probes) == 0 {
		return
	}
	c.started = true
	var tick func()
	tick = func() {
		if c.stopped {
			return
		}
		c.Sample(eng.Now())
		eng.After(c.interval, tick)
	}
	eng.At(eng.Now(), tick)
}

// Stop ends the sampling loop: the next pending tick becomes a no-op and
// nothing is rescheduled. Harness code calls it when the driven workload
// completes so the trailing timer does not keep the event queue alive.
func (c *Cell) Stop() {
	if c == nil {
		return
	}
	c.stopped = true
}

// freeze fixes the schema, at the first sample or the first export: the
// sorted column list and the permutation from registration order into it.
func (c *Cell) freeze() {
	n := len(c.names)
	c.cols = append(make([]string, 0, n), c.names...)
	sort.Strings(c.cols)
	c.perm = make([]int, n)
	for j, name := range c.names {
		c.perm[sort.SearchStrings(c.cols, name)] = j
	}
	c.scratch = make([]int64, n)
}

// Sample runs every probe at virtual time now and appends the row; a tick
// that cannot be stored runs no probe. Start's tick calls it; tests may call
// it directly.
func (c *Cell) Sample(now sim.Time) {
	if c == nil {
		return
	}
	c.samples++
	if c.cols == nil {
		c.freeze()
	}
	if n := len(c.rows); now < 0 || n >= c.maxRows || (n > 0 && now <= c.rows[n-1].T) {
		c.dropped++
		return
	}
	for i := range c.scratch {
		c.scratch[i] = 0
	}
	for _, p := range c.probes {
		p.fn(now, c.scratch[p.off:p.off+p.n])
	}
	v := make([]int64, len(c.cols))
	for i, j := range c.perm {
		v[i] = c.scratch[j]
	}
	c.rows = append(c.rows, Sample{T: now, V: v})
}

// DumpFlight writes the flight record (reason, trailing samples, trailing
// spans) as JSON into the registry's FlightDir, returning the file path.
// It is a no-op returning "" when the cell is nil, no FlightDir is
// configured, or this cell already dumped (the first failure wins — later
// cascading errors would overwrite the interesting state). A dump that
// fails to reach the disk does not count: the next trigger tries again.
func (c *Cell) DumpFlight(reason string) (string, error) {
	if c == nil || c.reg == nil || c.reg.FlightDir == "" || c.dumped {
		return "", nil
	}
	if err := os.MkdirAll(c.reg.FlightDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(c.reg.FlightDir, "flight-"+SanitizeLabel(c.label)+".json")
	data, err := c.EncodeFlight(reason)
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	c.dumped = true
	return path, nil
}

// SanitizeLabel maps a cell label to a filesystem-safe name: path
// separators and whitespace become '_'.
func SanitizeLabel(label string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '/', '\\', ' ', '\t', ':':
			return '_'
		}
		return r
	}, label)
}

// Err reports what the cell could not record (nil when clean): columns
// declared after the first sample froze the schema, or ticks dropped because
// their time did not advance or the table was full.
func (c *Cell) Err() error {
	if c == nil {
		return nil
	}
	if len(c.late) > 0 {
		return fmt.Errorf("telemetry: %s: columns %v registered after the first sample", c.label, c.late)
	}
	if c.dropped > 0 {
		return fmt.Errorf("telemetry: %s: %d samples dropped (time not advancing or more than %d rows)", c.label, c.dropped, c.maxRows)
	}
	return nil
}
