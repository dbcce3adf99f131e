// Recovery: write a dataset through SlimIO, take snapshots, keep writing,
// then simulate a crash by attaching a brand-new backend to the same device
// and running the §4.2 recovery procedure — metadata scan, snapshot load,
// WAL replay — and verify the dataset byte for byte.
//
//	go run ./examples/recovery
package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"github.com/slimio/slimio/internal/core"
	"github.com/slimio/slimio/internal/exp"
	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/sim"
)

func main() {
	if err := run(os.Stdout, 3000); err != nil {
		log.Fatal(err)
	}
}

// run lives through sets SETs over 500 accounts, crashes, recovers and
// verifies, reporting to w.
func run(w io.Writer, sets int) error {
	// The evaluation's own builder assembles NAND array, FDP FTL, NVMe
	// front-end and SlimIO backend: 64 MiB device, 8 MiB snapshot slots.
	sc := exp.Scale{DeviceBytes: 64 << 20, SlotBytes: 8 << 20}
	eng := sim.NewEngine()
	st, err := exp.BuildStack(eng, exp.SlimIOFDP, sc)
	if err != nil {
		return err
	}

	// --- Phase 1: a life before the crash. ---
	db := imdb.New(eng, st.Backend, imdb.Config{
		Policy:             imdb.PeriodicalLog,
		WALSnapshotTrigger: 32 << 10, // WAL-snapshot every 32 KiB of log
		Pool:               st.Pool(),
	}, nil)
	db.Start()

	expected := map[string][]byte{}
	var setErr error
	eng.Spawn("life", func(env *sim.Env) {
		defer db.Shutdown(env) // clean shutdown: final flush + sync
		for i := 0; i < sets; i++ {
			k := fmt.Sprintf("acct:%05d", i%500)
			v := []byte(fmt.Sprintf("balance=%d;nonce=%d", i*13, i))
			expected[k] = v
			if setErr = db.Set(env, k, v); setErr != nil {
				return
			}
		}
	})
	eng.Run()
	if setErr != nil {
		return setErr
	}
	stats := db.Stats()
	fmt.Fprintf(w, "before crash: %d keys, %d snapshots, WAL flushes %d\n",
		db.Store().Len(), len(stats.Snapshots), stats.WALFlushes)
	for _, s := range st.Slim.Slots() {
		fmt.Fprintf(w, "  slot %d: %-12s %6.1f KiB\n", s.Index, s.Role, float64(s.Used)/1024)
	}

	// --- Phase 2: the process dies; a new one attaches to the device. ---
	eng2 := sim.NewEngine()
	backend2, err := core.New(eng2, st.Dev, core.Config{SlotPages: sc.SlotBytes / int64(st.Dev.PageSize())})
	if err != nil {
		return err
	}
	db2 := imdb.New(eng2, backend2, imdb.Config{Pool: st.Pool()}, nil)
	var recErr error
	eng2.Spawn("recover", func(env *sim.Env) {
		t0 := env.Now()
		entries, walRecs, err := db2.Recover(env)
		if err != nil {
			recErr = err
			return
		}
		fmt.Fprintf(w, "\nrecovered %d snapshot entries + %d WAL records in %v (virtual)\n",
			entries, walRecs, env.Now().Sub(t0))
	})
	eng2.Run()
	if recErr != nil {
		return recErr
	}

	// --- Phase 3: verify. ---
	mismatches := 0
	for k, v := range expected {
		if got := db2.Store().Get(k); !bytes.Equal(got, v) {
			mismatches++
		}
	}
	fmt.Fprintf(w, "verification: %d keys checked, %d mismatches\n", len(expected), mismatches)
	if mismatches > 0 || db2.Store().Len() != len(expected) {
		return errors.New("recovery verification FAILED")
	}
	fmt.Fprintln(w, "recovery verification OK")

	// Tear down both lives; a page buffer still held anywhere is an error.
	eng.Shutdown()
	eng2.Shutdown()
	db2.ReleaseBuffers() // the recovery engine never ran Shutdown
	backend2.Close()
	return st.Teardown()
}
