package exp

import (
	"flag"
	"fmt"
	"time"

	"github.com/slimio/slimio/internal/sim"
)

// simDurationValue adapts a sim.Duration to the flag.Value interface. The
// accepted syntax is Go duration syntax ("3s", "250ms", "1m30s"), but the
// parsed value is a span of *virtual* time: wall-clock flag.Duration values
// have no meaning inside the deterministic simulation, and using one
// invites exactly the confusion this helper removes.
type simDurationValue sim.Duration

func (v *simDurationValue) String() string {
	return sim.Duration(*v).String()
}

func (v *simDurationValue) Set(s string) error {
	d, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	if d < 0 {
		return fmt.Errorf("virtual duration must be non-negative, got %s", s)
	}
	*v = simDurationValue(d.Nanoseconds())
	return nil
}

// SimDurationFlag registers a virtual-time duration flag on fs and returns a
// pointer to the parsed sim.Duration, for simulated-time windows and
// intervals.
func SimDurationFlag(fs *flag.FlagSet, name string, def sim.Duration, usage string) *sim.Duration {
	d := def
	fs.Var((*simDurationValue)(&d), name, usage)
	return &d
}
