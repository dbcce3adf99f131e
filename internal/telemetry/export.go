package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"github.com/slimio/slimio/internal/metrics"
	"github.com/slimio/slimio/internal/sim"
)

// Dump is the canonical telemetry artifact: every cell's sampled gauge
// series plus histogram summaries. All values are integers (virtual
// nanoseconds, counts, bytes), so encoding is byte-deterministic — the
// serial-vs-parallel golden test compares these bytes directly.
type Dump struct {
	IntervalNS int64      `json:"interval_ns"`
	Cells      []CellDump `json:"cells"`
}

// CellDump is one cell's telemetry in the dump.
type CellDump struct {
	Label string `json:"label"`
	// Names are the gauge names, sorted; every sample's V aligns to them.
	Names   []string   `json:"names"`
	Samples []Sample   `json:"samples"`
	Hists   []HistDump `json:"hists,omitempty"`
}

// Sample is one sampling tick: the virtual time and each gauge's value at
// that tick, ordered by CellDump.Names.
type Sample struct {
	T sim.Time `json:"t"`
	V []int64  `json:"v"`
}

// HistDump summarizes one cell histogram (log-bucketed, ≤2⁻⁷ relative
// quantile error — see metrics.Histogram).
type HistDump struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
	Min   int64  `json:"min"`
	Max   int64  `json:"max"`
	Mean  int64  `json:"mean"`
	P50   int64  `json:"p50"`
	P90   int64  `json:"p90"`
	P99   int64  `json:"p99"`
}

// Snapshot renders the registry as a Dump, cells in sorted-label order.
func (r *Registry) Snapshot() *Dump {
	d := &Dump{IntervalNS: int64(r.Interval())}
	for _, label := range r.Labels() {
		d.Cells = append(d.Cells, r.Get(label).snapshot())
	}
	return d
}

// snapshot renders one cell: the dump's samples are the table's rows.
func (c *Cell) snapshot() CellDump {
	if c == nil {
		return CellDump{}
	}
	cd := CellDump{Label: c.label, Names: c.GaugeNames(), Samples: c.rows}
	for _, name := range c.HistNames() {
		h := c.hists[name]
		cd.Hists = append(cd.Hists, HistDump{
			Name:  name,
			Count: h.Count(),
			Min:   int64(h.Min()),
			Max:   int64(h.Max()),
			Mean:  int64(h.Mean()),
			P50:   int64(h.Percentile(50)),
			P90:   int64(h.Percentile(90)),
			P99:   int64(h.Percentile(99)),
		})
	}
	return cd
}

// ExportJSON writes the registry as the canonical JSON dump.
func (r *Registry) ExportJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", " ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ParseDump decodes and validates a telemetry dump.
func ParseDump(data []byte) (*Dump, error) {
	var d Dump
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("telemetry: invalid JSON: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// ValidateDump checks data against the dump schema (see Validate). Used by
// `make top-smoke` the way trace-smoke uses vtrace.ValidateTrace.
func ValidateDump(data []byte) error {
	_, err := ParseDump(data)
	return err
}

// Validate checks the schema invariants the exporter promises: a positive
// interval, at least one cell, sorted unique gauge names, rows aligned to
// the name list, and strictly increasing tick times.
func (d *Dump) Validate() error {
	if d.IntervalNS <= 0 {
		return fmt.Errorf("telemetry: non-positive interval_ns %d", d.IntervalNS)
	}
	if len(d.Cells) == 0 {
		return fmt.Errorf("telemetry: no cells")
	}
	for _, c := range d.Cells {
		if c.Label == "" {
			return fmt.Errorf("telemetry: cell with empty label")
		}
		if !sort.StringsAreSorted(c.Names) {
			return fmt.Errorf("telemetry: %s: gauge names not sorted", c.Label)
		}
		for i := 1; i < len(c.Names); i++ {
			if c.Names[i] == c.Names[i-1] {
				return fmt.Errorf("telemetry: %s: duplicate gauge name %q", c.Label, c.Names[i])
			}
		}
		var prev sim.Time = -1
		for i, s := range c.Samples {
			if len(s.V) != len(c.Names) {
				return fmt.Errorf("telemetry: %s: sample %d has %d values, want %d", c.Label, i, len(s.V), len(c.Names))
			}
			if s.T <= prev {
				return fmt.Errorf("telemetry: %s: sample %d time %d not increasing", c.Label, i, int64(s.T))
			}
			prev = s.T
		}
	}
	return nil
}

// Column returns the index of name in the cell's gauge list, or -1.
func (c *CellDump) Column(name string) int {
	for i, n := range c.Names {
		if n == name {
			return i
		}
	}
	return -1
}

// CSV renders one cell's samples as "t_ns,<gauge>,..." lines — integer
// columns only, so the bytes are deterministic.
func (c *CellDump) CSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("t_ns")
	for _, name := range c.Names {
		bw.WriteByte(',')
		bw.WriteString(name)
	}
	bw.WriteByte('\n')
	var buf [24]byte
	for _, s := range c.Samples {
		bw.Write(strconv.AppendInt(buf[:0], int64(s.T), 10))
		for _, v := range s.V {
			bw.WriteByte(',')
			bw.Write(strconv.AppendInt(buf[:0], v, 10))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// ExportOpenMetrics writes the registry's final state in OpenMetrics text
// exposition format: one gauge family per metric name with a `cell` label
// per cell (the value is the dump's last row), one summary family per
// histogram, and — when counters is non-empty — a counter family carrying
// harness-level totals such as the injected-fault counts from
// fault.Plan.Stats(). Everything is emitted in sorted order and integer
// arithmetic, so the bytes are deterministic.
func (r *Registry) ExportOpenMetrics(w io.Writer, counters []metrics.KV) error {
	bw := bufio.NewWriter(w)
	dump := r.Snapshot()

	// Union of gauge and histogram names across cells, sorted.
	nameSet := make(map[string]bool)
	histSet := make(map[string]bool)
	for _, cd := range dump.Cells {
		for _, n := range cd.Names {
			nameSet[n] = true
		}
		for _, h := range cd.Hists {
			histSet[h.Name] = true
		}
	}

	for _, name := range sortedKeys(nameSet) {
		fam := "slimio_" + mangle(name)
		fmt.Fprintf(bw, "# TYPE %s gauge\n", fam)
		for i := range dump.Cells {
			cd := &dump.Cells[i]
			col := cd.Column(name)
			if col < 0 {
				continue
			}
			var last int64
			if n := len(cd.Samples); n > 0 {
				last = cd.Samples[n-1].V[col]
			}
			fmt.Fprintf(bw, "%s{cell=%q} %d\n", fam, cd.Label, last)
		}
	}
	for _, name := range sortedKeys(histSet) {
		fam := "slimio_" + mangle(name)
		fmt.Fprintf(bw, "# TYPE %s summary\n", fam)
		for _, cd := range dump.Cells {
			h := r.Get(cd.Label).hists[name]
			if h == nil {
				continue
			}
			for _, q := range []struct {
				q string
				v int64
			}{
				{"0.5", int64(h.Percentile(50))},
				{"0.9", int64(h.Percentile(90))},
				{"0.99", int64(h.Percentile(99))},
			} {
				fmt.Fprintf(bw, "%s{cell=%q,quantile=\"%s\"} %d\n", fam, cd.Label, q.q, q.v)
			}
			fmt.Fprintf(bw, "%s_count{cell=%q} %d\n", fam, cd.Label, h.Count())
			fmt.Fprintf(bw, "%s_sum{cell=%q} %d\n", fam, cd.Label, int64(h.Sum()))
		}
	}
	if len(counters) > 0 {
		bw.WriteString("# TYPE slimio_counter counter\n")
		for _, kv := range counters {
			fmt.Fprintf(bw, "slimio_counter_total{name=%q} %d\n", kv.Key, kv.Value)
		}
	}
	bw.WriteString("# EOF\n")
	return bw.Flush()
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// mangle maps a dotted gauge name to an OpenMetrics-legal metric name.
func mangle(name string) string {
	b := []byte(name)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}
