// Command slimio-top replays a telemetry dump (slimio-bench -telemetry) as
// a state dashboard: what every layer of every cell was doing, tick by
// virtual tick — live write amplification, GC copy traffic, reclaim-unit
// headroom, writeback and ring queue depths, WAL-buffer fill, pooled-buffer
// in-flight counts.
//
// Usage:
//
//	slimio-top -dump out/telemetry.json
//	slimio-top -dump out/telemetry.json -cell slimio-fdp/always
//
// The output is deterministic plain text (integer arithmetic, no wall
// clock, no ANSI), which is what `make top-smoke` gates on.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/slimio/slimio/internal/telemetry"
)

func main() {
	var (
		dumpPath = flag.String("dump", "", "telemetry dump to render (required)")
		cellSel  = flag.String("cell", "", "render only this cell label (default: all cells)")
		rows     = flag.Int("rows", 12, "max sample rows per cell (evenly spaced)")
	)
	flag.Parse()

	if *dumpPath == "" {
		fmt.Fprintln(os.Stderr, "slimio-top: -dump is required")
		os.Exit(2)
	}
	data, err := os.ReadFile(*dumpPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	dump, err := telemetry.ParseDump(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cells := dump.Cells
	if *cellSel != "" {
		cells = nil
		for _, c := range dump.Cells {
			if c.Label == *cellSel {
				cells = append(cells, c)
			}
		}
		if len(cells) == 0 {
			fmt.Fprintf(os.Stderr, "slimio-top: no cell %q in %s (have: %s)\n",
				*cellSel, *dumpPath, strings.Join(labels(dump.Cells), ", "))
			os.Exit(1)
		}
	}

	w := bufio.NewWriter(os.Stdout)
	renderTables(w, dump.IntervalNS, cells, *rows)
	w.Flush()
}

func labels(cells []telemetry.CellDump) []string {
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = c.Label
	}
	return out
}
