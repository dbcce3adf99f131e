package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRecovery drives main's code path with a tiny workload. A nil error
// includes Stack.Teardown: both lives released every pooled buffer.
func TestRecovery(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, 1200); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{"verification: 500 keys checked, 0 mismatches", "recovery verification OK"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
