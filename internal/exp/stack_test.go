package exp

import (
	"strings"
	"testing"

	"github.com/slimio/slimio/internal/core"
)

func TestFilePIDTable(t *testing.T) {
	cases := []struct {
		name string
		want uint32
	}{
		{"appendonly.wal", core.PIDWAL},
		{"appendonly.wal.1", core.PIDWAL},
		{"dump-wal.rdb", core.PIDWALSnapshot},
		{"dump-wal.rdb.tmp", core.PIDWALSnapshot},
		{"dump-ondemand.rdb", core.PIDOnDemand},
		{"dump-ondemand.rdb.tmp", core.PIDOnDemand},
		// Unknown names fall back to stream 0, never another class.
		{"", 0},
		{"nodes.conf", 0},
		{"appendonly", 0},    // prefix shorter than the WAL pattern
		{"xdump-wal.rdb", 0}, // prefix must anchor at the start
	}
	for _, c := range cases {
		if got := filePID(c.name); got != c.want {
			t.Errorf("filePID(%q) = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"tiny", "small", "paper"} {
		sc, err := ScaleByName(name)
		if err != nil || sc.Name != name || sc.DeviceBytes == 0 {
			t.Errorf("ScaleByName(%q) = %+v, %v", name, sc, err)
		}
	}
	// An unknown name is an error naming the presets, never a silent default.
	for _, name := range []string{"", "Tiny", "paperx", "fiftieth"} {
		_, err := ScaleByName(name)
		if err == nil || !strings.Contains(err.Error(), "tiny, small, paper") {
			t.Errorf("ScaleByName(%q): err = %v, want one listing the presets", name, err)
		}
	}
}
