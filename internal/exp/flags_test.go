package exp

import (
	"flag"
	"testing"

	"github.com/slimio/slimio/internal/sim"
)

func TestSimDurationFlag(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	d := SimDurationFlag(fs, "window", 3*sim.Second, "w")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *d != 3*sim.Second {
		t.Errorf("default = %v, want 3s", *d)
	}

	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	d = SimDurationFlag(fs, "window", 0, "w")
	if err := fs.Parse([]string{"-window", "250ms"}); err != nil {
		t.Fatal(err)
	}
	if *d != 250*sim.Millisecond {
		t.Errorf("parsed = %v, want 250ms", *d)
	}
	if got := fs.Lookup("window").Value.String(); got != (250 * sim.Millisecond).String() {
		t.Errorf("String() = %q, want %q", got, (250 * sim.Millisecond).String())
	}

	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(discard{})
	SimDurationFlag(fs, "window", 0, "w")
	if err := fs.Parse([]string{"-window", "-5s"}); err == nil {
		t.Errorf("negative duration accepted")
	}
	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(discard{})
	SimDurationFlag(fs, "window", 0, "w")
	if err := fs.Parse([]string{"-window", "bogus"}); err == nil {
		t.Errorf("malformed duration accepted")
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
