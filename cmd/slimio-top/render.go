package main

import (
	"fmt"
	"io"

	"github.com/slimio/slimio/internal/telemetry"
)

// column is one dashboard column: a header and how to read it from a sample
// row. Columns whose gauges a cell does not export render as "-" — the
// kernel path has no rings, the SlimIO path has no dirty pages, and the
// dashboard shows both side by side.
type column struct {
	header string
	// value returns the rendered cell for sample row k, or "" when the
	// backing gauges are absent.
	value func(v *cellView, k int) string
}

// cellView pre-resolves the column indices of one cell so row rendering is
// a flat array walk.
type cellView struct {
	c   *telemetry.CellDump
	idx map[string]int
}

func newCellView(c *telemetry.CellDump) *cellView {
	v := &cellView{c: c, idx: make(map[string]int, len(c.Names))}
	for i, n := range c.Names {
		v.idx[n] = i
	}
	return v
}

// at returns gauge name's value at sample row k.
func (v *cellView) at(name string, k int) (int64, bool) {
	i, ok := v.idx[name]
	if !ok || k < 0 || k >= len(v.c.Samples) {
		return 0, false
	}
	return v.c.Samples[k].V[i], true
}

// gaugeCol renders one gauge verbatim.
func gaugeCol(header, name string) column {
	return column{header: header, value: func(v *cellView, k int) string {
		n, ok := v.at(name, k)
		if !ok {
			return ""
		}
		return fmt.Sprintf("%d", n)
	}}
}

// bytesCol renders one byte-valued gauge human-readably (KiB/MiB).
func bytesCol(header, name string) column {
	return column{header: header, value: func(v *cellView, k int) string {
		n, ok := v.at(name, k)
		if !ok {
			return ""
		}
		return fmtBytes(n)
	}}
}

// wafCol computes the live write-amplification factor at row k from the
// cumulative FTL page counters, in integer hundredths (1.00 when the device
// has not written yet).
func wafCol() column {
	return column{header: "waf", value: func(v *cellView, k int) string {
		host, ok1 := v.at("ftl.host_write_pages", k)
		nand, ok2 := v.at("ftl.nand_write_pages", k)
		if !ok1 || !ok2 {
			return ""
		}
		x100 := int64(100)
		if host > 0 {
			x100 = (nand*100 + host/2) / host
		}
		return fmt.Sprintf("%d.%02d", x100/100, x100%100)
	}}
}

// tenantsCol renders the tenant count of multi-tenant cells.
func tenantsCol() column {
	return column{header: "tens", value: func(v *cellView, k int) string {
		n, ok := v.at("tenant.count", k)
		if !ok {
			return ""
		}
		return fmt.Sprintf("%d", n)
	}}
}

// tenantWAFCol renders the worst per-tenant WAF of a multi-tenant cell, from
// the tenant<i>.waf_x100 gauges (indexed lookups over a bounded loop, so the
// scan is deterministic regardless of how many tenants the cell mounts).
func tenantWAFCol() column {
	return column{header: "twaf", value: func(v *cellView, k int) string {
		count, ok := v.at("tenant.count", k)
		if !ok || count <= 0 {
			return ""
		}
		worst := int64(0)
		for i := int64(0); i < count; i++ {
			x100, ok := v.at(fmt.Sprintf("tenant%d.waf_x100", i), k)
			if ok && x100 > worst {
				worst = x100
			}
		}
		return fmt.Sprintf("%d.%02d", worst/100, worst%100)
	}}
}

// dashboard is the column set, in display order.
var dashboard = []column{
	wafCol(),
	tenantsCol(),
	tenantWAFCol(),
	gaugeCol("gc_cp", "ftl.gc_copied_pages"),
	gaugeCol("rus", "fdp.free_rus"),
	gaugeCol("dirty", "kernelio.dirty_pages"),
	gaugeCol("wb_q", "kernelio.wb_inflight"),
	gaugeCol("sq", "uring.wal.sq_depth"),
	gaugeCol("cq", "uring.wal.cq_depth"),
	gaugeCol("pool", "bufpool.inflight"),
	bytesCol("walbuf", "imdb.wal_buf_bytes"),
	bytesCol("mem", "imdb.memory_bytes"),
}

// renderTables prints each cell as a plain-text table of evenly spaced
// sample rows — integer arithmetic and stable formatting only, so CI can
// diff the output.
func renderTables(w io.Writer, intervalNS int64, cells []telemetry.CellDump, maxRows int) {
	for i := range cells {
		c := &cells[i]
		v := newCellView(c)
		fmt.Fprintf(w, "cell %s  (interval %s, %d samples, %d gauges)\n",
			c.Label, fmtNS(intervalNS), len(c.Samples), len(c.Names))
		fmt.Fprintf(w, "%10s", "t")
		for _, col := range dashboard {
			fmt.Fprintf(w, " %8s", col.header)
		}
		fmt.Fprintln(w)
		for _, k := range spacedRows(len(c.Samples), maxRows) {
			fmt.Fprintf(w, "%10s", fmtNS(int64(c.Samples[k].T)))
			for _, col := range dashboard {
				s := col.value(v, k)
				if s == "" {
					s = "-"
				}
				fmt.Fprintf(w, " %8s", s)
			}
			fmt.Fprintln(w)
		}
		for _, h := range c.Hists {
			fmt.Fprintf(w, "  hist %-24s n=%d min=%d p50=%d p90=%d p99=%d max=%d\n",
				h.Name, h.Count, h.Min, h.P50, h.P90, h.P99, h.Max)
		}
		fmt.Fprintln(w)
	}
}

// spacedRows picks up to maxRows indices of n, evenly spaced, always
// including the first and last sample.
func spacedRows(n, maxRows int) []int {
	if n <= 0 {
		return nil
	}
	if maxRows < 2 {
		maxRows = 2
	}
	if n <= maxRows {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, 0, maxRows)
	for i := 0; i < maxRows; i++ {
		out = append(out, i*(n-1)/(maxRows-1))
	}
	// Spacing can duplicate neighbours at small n; keep strictly increasing.
	uniq := out[:1]
	for _, k := range out[1:] {
		if k > uniq[len(uniq)-1] {
			uniq = append(uniq, k)
		}
	}
	return uniq
}

// fmtNS renders virtual nanoseconds compactly (µs/ms/s granularity).
func fmtNS(ns int64) string {
	switch {
	case ns >= 1e9 && ns%1e9 == 0:
		return fmt.Sprintf("%ds", ns/1e9)
	case ns >= 1e6 && ns%1e6 == 0:
		return fmt.Sprintf("%dms", ns/1e6)
	case ns >= 1e3 && ns%1e3 == 0:
		return fmt.Sprintf("%dus", ns/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// fmtBytes renders byte counts compactly with integer arithmetic.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%dG", n>>30)
	case n >= 1<<20:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprintf("%d", n)
	}
}
