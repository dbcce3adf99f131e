// CFD checkpoint: the paper's HPC motivation (§1). A computational-fluid-
// dynamics simulation exchanges per-timestep intermediate fields (pressure,
// velocity) through the IMDB instead of files, and periodically snapshots
// the whole transient state as a restart checkpoint.
//
// The example runs the same workflow on the baseline (kernel path + plain
// SSD) and on SlimIO (passthru + FDP) and compares the timestep rate and
// checkpoint stalls.
//
//	go run ./examples/cfd-checkpoint
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"github.com/slimio/slimio/internal/exp"
	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/sim"
)

const (
	ranks         = 8    // simulated MPI ranks
	fieldsPerRank = 4    // pressure, 3× velocity components
	chunkBytes    = 4096 // one field tile
)

type result struct {
	elapsed       sim.Duration
	checkpointDur sim.Duration
	waf           float64
}

// runWorkflow runs the workflow on one stack of the evaluation's builder: a
// 96 MiB device with 12 MiB SlimIO snapshot slots.
func runWorkflow(kind exp.BackendKind, timesteps, checkpointEach int) (result, error) {
	var res result
	eng := sim.NewEngine()
	st, err := exp.BuildStack(eng, kind, exp.Scale{DeviceBytes: 96 << 20, SlotBytes: 12 << 20})
	if err != nil {
		return res, err
	}
	db := imdb.New(eng, st.Backend, imdb.Config{Policy: imdb.PeriodicalLog, Pool: st.Pool()}, nil)
	db.Start()

	rng := rand.New(rand.NewSource(7))
	tile := make([]byte, chunkBytes)
	rng.Read(tile[:chunkBytes/2]) // half-compressible field data

	var runErr error
	eng.Spawn("workflow", func(env *sim.Env) {
		defer db.Shutdown(env)
		start := env.Now()
		for step := 0; step < timesteps; step++ {
			// Each rank publishes its updated field tiles for the next
			// phase to consume — the transient-data exchange the paper
			// motivates.
			for rank := 0; rank < ranks; rank++ {
				for f := 0; f < fieldsPerRank; f++ {
					key := fmt.Sprintf("step:%d/rank:%d/field:%d", step%2, rank, f)
					if runErr = db.Set(env, key, tile); runErr != nil {
						return
					}
				}
			}
			// Neighbour exchange: each rank reads its neighbours' tiles.
			for rank := 0; rank < ranks; rank++ {
				key := fmt.Sprintf("step:%d/rank:%d/field:0", step%2, (rank+1)%ranks)
				if _, runErr = db.Get(env, key); runErr != nil {
					return
				}
			}
			// Periodic restart checkpoint of all transient state.
			if (step+1)%checkpointEach == 0 {
				trig := db.TriggerSnapshot(imdb.OnDemandSnapshot)
				trig.Reply.Wait(env)
				db.WaitNoSnapshot(env)
			}
		}
		res.elapsed = env.Now().Sub(start)
	})
	eng.Run()
	if runErr != nil {
		return res, runErr
	}

	for _, ev := range db.Stats().Snapshots {
		res.checkpointDur += ev.Duration
	}
	res.waf = st.Dev.Stats().WAF()
	// Tear down: a leaked page buffer anywhere on the write path is an error.
	eng.Shutdown()
	return res, st.Teardown()
}

func main() {
	if err := run(os.Stdout, 120, 40); err != nil {
		log.Fatal(err)
	}
}

// run compares the two backends over timesteps steps with a checkpoint every
// checkpointEach, reporting to w.
func run(w io.Writer, timesteps, checkpointEach int) error {
	fmt.Fprintf(w, "CFD transient-data workflow: %d ranks x %d fields x %d timesteps, checkpoint every %d steps\n\n",
		ranks, fieldsPerRank, timesteps, checkpointEach)
	fmt.Fprintf(w, "%-10s %14s %18s %18s %8s\n", "backend", "workflow time", "steps/sec", "checkpoint time", "WAF")
	for _, b := range []struct {
		name string
		kind exp.BackendKind
	}{
		{"baseline", exp.BaselineF2FS}, // kernel path, F2FS, conventional SSD
		{"slimio", exp.SlimIOFDP},      // passthru onto an FDP SSD
	} {
		r, err := runWorkflow(b.kind, timesteps, checkpointEach)
		if err != nil {
			return fmt.Errorf("%s: %w", b.name, err)
		}
		stepsPerSec := float64(timesteps) / r.elapsed.Seconds()
		fmt.Fprintf(w, "%-10s %14v %18.1f %18v %8.2f\n", b.name, r.elapsed, stepsPerSec, r.checkpointDur, r.waf)
	}
	return nil
}
