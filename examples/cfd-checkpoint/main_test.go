package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestCFDCheckpoint drives main's code path with a tiny workload. A nil
// error includes Stack.Teardown on both stacks: no pooled buffer leaked on
// the kernel path or the passthru path.
func TestCFDCheckpoint(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, 12, 4); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{"\nbaseline ", "\nslimio "} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks a %q row:\n%s", strings.TrimSpace(want), out.String())
		}
	}
}
