package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestQuickstart drives main's code path with a tiny workload. A nil error
// includes System.Close: the stack tore down with no pooled buffer leaked.
func TestQuickstart(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, 200); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{"served 200 SETs, 1 GETs", "snapshot (on-demand): 100 entries", "device WAF: 1.00"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
