// YCSB-A head-to-head: run the paper's second workload (zipfian 50/50
// GET:SET) against both persistence backends and print the Table-4-style
// comparison, using the experiment harness as a library.
//
//	go run ./examples/ycsb
//	go run ./examples/ycsb -ops 40000 -records 5000
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"github.com/slimio/slimio/internal/exp"
	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/workload"
)

func main() {
	ops := flag.Int64("ops", 20000, "operations per run")
	records := flag.Int64("records", 3000, "preloaded record count")
	flag.Parse()
	if err := run(os.Stdout, *ops, *records); err != nil {
		log.Fatal(err)
	}
}

// run drives ops operations over records preloaded records against both
// backends, reporting to w.
func run(w io.Writer, ops, records int64) error {
	sc := exp.TinyScale()
	sc.OpsPerRep = ops
	sc.KeyRange = records
	sc.Reps = 1
	sc.ValueSize = 2048

	fmt.Fprintf(w, "YCSB-A: %d records x 2 KiB, %d ops, 50/50 GET:SET, zipfian\n\n", records, ops)
	fmt.Fprintf(w, "%-14s %12s %12s %12s %14s %14s\n",
		"backend", "avg RPS", "snapshots", "snap time", "SET p99.9", "GET p99.9")
	for _, kind := range []exp.BackendKind{exp.BaselineF2FS, exp.SlimIOFDP} {
		res, err := exp.RunCell(exp.CellConfig{
			Kind:     kind,
			Policy:   imdb.PeriodicalLog,
			Scale:    sc,
			Workload: workload.YCSBA(0, sc.KeyRange),
			Preload:  true,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-14s %12.0f %12d %12v %14v %14v\n",
			kind, res.AvgRPS, len(res.Snapshots), res.MeanSnapshotTime,
			res.SetP999, res.GetP999)
		// Tear the cell's stack down: a leaked page buffer is an error.
		res.Stack.Eng.Shutdown()
		if err := res.ReleaseHeavy(); err != nil {
			return err
		}
	}
	return nil
}
