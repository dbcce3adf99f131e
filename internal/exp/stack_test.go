package exp

import (
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
