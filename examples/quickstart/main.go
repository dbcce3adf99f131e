// Quickstart: bring up a SlimIO-backed in-memory database on a simulated
// FDP SSD through the public package API, serve some traffic, take a
// snapshot, and print what happened.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	slimio "github.com/slimio/slimio"
)

func main() {
	if err := run(os.Stdout, 1000); err != nil {
		log.Fatal(err)
	}
}

// run serves sets SETs, takes a snapshot and reports to w.
func run(w io.Writer, sets int) error {
	// One call assembles the whole stack: FEMU-style NAND array, FDP FTL,
	// NVMe front-end, SlimIO backend (metadata region, three snapshot
	// slots, WAL ring, passthru paths), and the Redis-like engine.
	sys, err := slimio.NewSystem(slimio.SystemConfig{
		DeviceBytes: 64 << 20,
		DB:          slimio.DBConfig{Policy: slimio.PeriodicalLog},
	})
	if err != nil {
		return err
	}

	// Everything below runs in virtual time on the simulation engine.
	var runErr error
	sys.Sim.Spawn("client", func(env *slimio.Env) {
		defer sys.DB.Shutdown(env)
		for i := 0; i < sets; i++ {
			key := fmt.Sprintf("sensor:%04d", i%100)
			value := []byte(fmt.Sprintf("reading-%d", i))
			if runErr = sys.DB.Set(env, key, value); runErr != nil {
				return
			}
		}
		v, err := sys.DB.Get(env, "sensor:0042")
		if err != nil {
			runErr = err
			return
		}
		fmt.Fprintf(w, "GET sensor:0042 = %q at t=%v\n", v, env.Now())

		// Take a point-in-time backup (On-Demand-Snapshot): it runs in a
		// forked child process while the engine keeps serving.
		trig := sys.DB.TriggerSnapshot(slimio.OnDemandSnapshot)
		trig.Reply.Wait(env)
		sys.DB.WaitNoSnapshot(env)
	})
	sys.Sim.Run()
	if runErr != nil {
		return runErr
	}

	st := sys.DB.Stats()
	fmt.Fprintf(w, "\nserved %d SETs, %d GETs in %v of virtual time\n",
		st.Sets, st.Gets, sys.Sim.Now())
	for _, ev := range st.Snapshots {
		fmt.Fprintf(w, "snapshot (%v): %d entries, %.1f KiB raw -> %.1f KiB on flash, took %v\n",
			ev.Kind, ev.Entries, float64(ev.RawBytes)/1024, float64(ev.CompressedBytes)/1024, ev.Duration)
	}
	fmt.Fprintf(w, "device WAF: %.2f (1.00 = no garbage-collection copies)\n", sys.Device.Stats().WAF())
	for _, s := range sys.Backend.Slots() {
		fmt.Fprintf(w, "slot %d: %-12s %d bytes\n", s.Index, s.Role, s.Used)
	}
	// Tear down: a leaked page buffer anywhere on the write path is an error.
	return sys.Close()
}
