package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestYCSB drives main's code path with a tiny workload. A nil error
// includes each cell's Stack.Teardown (through ReleaseHeavy).
func TestYCSB(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, 2000, 300); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{"\nbaseline-f2fs ", "\nslimio-fdp "} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks a %q row:\n%s", strings.TrimSpace(want), out.String())
		}
	}
}
