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
// A nil *Registry hands out nil *Cells, and every Cell (and metrics.Gauge)
// method nil-checks and returns immediately: with telemetry off, every hot
// path pays one predictable branch and allocates nothing — the same
// contract as vtrace's nil *Tracer.
//
// Each Cell also keeps a flight recorder: a bounded ring of the most recent
// samples which, together with the tail of the cell's vtrace spans, is
// dumped as JSON when something goes wrong mid-run (an unrecovered device
// fault, a crash-consistency oracle violation, a panicking cell) — the
// last-seconds state trajectory that explains the failure.
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

// DefaultFlightDepth is how many trailing samples the flight ring keeps.
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
	// disables dumping to disk; the ring still records.
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
		c = &Cell{label: label, interval: r.interval, reg: r, flightDepth: DefaultFlightDepth}
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

// flightSample is one flight-ring row: the tick time plus every gauge's
// value at that tick, in the cell's sorted-name order.
type flightSample struct {
	t sim.Time
	v []int64
}

// Cell is one experiment cell's telemetry: named gauges and histograms fed
// by probes that a virtual-time tick reads. Like a vtrace.Tracer it is
// unlocked — each cell runs on its own engine, which executes one process
// at a time. A nil *Cell is a no-op recorder.
type Cell struct {
	label    string
	interval sim.Duration
	reg      *Registry

	names  []string
	gauges map[string]*metrics.Gauge
	hists  map[string]*metrics.Histogram
	probes []func(now sim.Time)

	// tracer, when non-nil, contributes its trailing spans to flight dumps.
	tracer *vtrace.Tracer

	// started guards against double Start (e.g. a stack-level attach
	// followed by a cell-level attach).
	started bool
	stopped bool
	samples int64

	// Flight ring: fixed-capacity, overwritten circularly.
	flightDepth int
	flight      []flightSample
	flightNext  int
	sorted      []string
	dumped      bool
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

// Gauge returns the named gauge, creating it at the cell's interval on
// first use. A nil cell returns a nil gauge (whose methods are no-ops), so
// `cell.Gauge(name).Set(now, v)` is safe and allocation-free when off.
func (c *Cell) Gauge(name string) *metrics.Gauge {
	if c == nil {
		return nil
	}
	if c.gauges == nil {
		c.gauges = make(map[string]*metrics.Gauge)
	}
	g, ok := c.gauges[name]
	if !ok {
		g = metrics.NewGauge(c.interval)
		c.gauges[name] = g
		c.names = append(c.names, name)
	}
	return g
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
// order. Probes must only read simulation state and record into the cell;
// they run inside the engine's event loop and must not block.
func (c *Cell) AddProbe(fn func(now sim.Time)) {
	if c == nil {
		return
	}
	c.probes = append(c.probes, fn)
}

// SetTracer attaches the cell's vtrace tracer so flight dumps can include
// the trailing spans alongside the trailing samples.
func (c *Cell) SetTracer(t *vtrace.Tracer) {
	if c == nil {
		return
	}
	c.tracer = t
}

// GaugeNames returns the cell's gauge names in sorted order.
func (c *Cell) GaugeNames() []string {
	if c == nil {
		return nil
	}
	out := make([]string, len(c.names))
	copy(out, c.names)
	sort.Strings(out)
	return out
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
	c.sorted = c.GaugeNames()
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

// Sample runs every probe at virtual time now and appends a flight-ring
// row. Start's tick calls it; tests may call it directly.
func (c *Cell) Sample(now sim.Time) {
	if c == nil {
		return
	}
	for _, fn := range c.probes {
		fn(now)
	}
	c.samples++
	if c.sorted == nil {
		c.sorted = c.GaugeNames()
	}
	row := flightSample{t: now, v: make([]int64, len(c.sorted))}
	for i, name := range c.sorted {
		row.v[i] = c.gauges[name].Last()
	}
	if c.flightDepth <= 0 {
		c.flightDepth = DefaultFlightDepth
	}
	if len(c.flight) < c.flightDepth {
		c.flight = append(c.flight, row)
	} else {
		c.flight[c.flightNext] = row
		c.flightNext = (c.flightNext + 1) % c.flightDepth
	}
}

// flightRows returns the ring contents oldest-first.
func (c *Cell) flightRows() []flightSample {
	if len(c.flight) < c.flightDepth {
		return c.flight
	}
	out := make([]flightSample, 0, len(c.flight))
	out = append(out, c.flight[c.flightNext:]...)
	out = append(out, c.flight[:c.flightNext]...)
	return out
}

// FlightDumped reports whether this cell has written a flight dump.
func (c *Cell) FlightDumped() bool {
	if c == nil {
		return false
	}
	return c.dumped
}

// DumpFlight writes the flight record (reason, trailing samples, trailing
// spans) as JSON into the registry's FlightDir, returning the file path.
// It is a no-op returning "" when the cell is nil, no FlightDir is
// configured, or this cell already dumped (the first failure wins — later
// cascading errors would overwrite the interesting state).
func (c *Cell) DumpFlight(reason string) (string, error) {
	if c == nil || c.reg == nil || c.reg.FlightDir == "" || c.dumped {
		return "", nil
	}
	c.dumped = true
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

// Err aggregates per-gauge drop errors for the cell (nil when clean).
func (c *Cell) Err() error {
	if c == nil {
		return nil
	}
	for _, name := range c.GaugeNames() {
		if _, err := c.gauges[name].Errors(); err != nil {
			return fmt.Errorf("telemetry: %s: gauge %s: %w", c.label, name, err)
		}
	}
	return nil
}
