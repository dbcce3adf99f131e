package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/slimio/slimio/internal/vtrace"
)

func TestResolveExperiments(t *testing.T) {
	paper := []string{"table1", "table2", "fig2", "table3", "table4", "table5", "fig4", "fig5"}
	cases := []struct {
		name    string
		expFlag string
		tenants int
		single  string
		want    []string
		wantErr string // substring of the error; empty means success
	}{
		{name: "default is the paper's evaluation only", want: paper},
		{name: "all excludes ablation, isolation and inspect", expFlag: "all", want: paper},
		{name: "all plus a named extra", expFlag: "all,inspect", want: append(slices.Clone(paper), "inspect")},
		{name: "run order, not flag order", expFlag: "table5,table1", want: []string{"table1", "table5"}},
		{name: "tenants alone is isolation only", tenants: 3, want: []string{"isolation"}},
		{name: "tenants adds isolation to an explicit -exp", expFlag: "table3", tenants: 2, want: []string{"table3", "isolation"}},
		{name: "typo names the valid set", expFlag: "tabel3", wantErr: `unknown experiment "tabel3" (valid: table1, `},
		{name: "typo beside a valid name", expFlag: "table3,nope", wantErr: `unknown experiment "nope"`},
		{name: "vtrace with one experiment", expFlag: "table3", single: "-vtrace", want: []string{"table3"}},
		{name: "vtrace with two experiments", expFlag: "table3,table4", single: "-vtrace", wantErr: "-vtrace requires exactly one"},
		{name: "telemetry with all", single: "-telemetry", wantErr: "-telemetry requires exactly one"},
		{name: "vtrace with -tenants beside an -exp", expFlag: "table3", tenants: 2, single: "-vtrace", wantErr: "-vtrace requires exactly one"},
	}
	for _, c := range cases {
		got, err := resolveExperiments(c.expFlag, c.tenants, c.single)
		switch {
		case c.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.wantErr)
			}
		case err != nil:
			t.Errorf("%s: %v", c.name, err)
		case !slices.Equal(got, c.want):
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

// TestWriteTraceValidates: a trace file on disk is a schema-valid one. An
// export that fails validation (here: no events at all) is an error and
// leaves no file behind.
func TestWriteTraceValidates(t *testing.T) {
	dir := t.TempDir()

	empty := filepath.Join(dir, "empty.json")
	if err := writeTrace(empty, vtrace.NewRegistry()); err == nil || !strings.Contains(err.Error(), "failed validation") {
		t.Errorf("empty export: err = %v, want a validation failure", err)
	}
	if _, err := os.Stat(empty); !os.IsNotExist(err) {
		t.Errorf("empty export left a file behind (stat err = %v)", err)
	}

	reg := vtrace.NewRegistry()
	reg.Tracer("cell").Emit("nand", "program", 0, 10, 20, 1)
	path := filepath.Join(dir, "trace.json")
	if err := writeTrace(path, reg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := vtrace.ValidateTrace(data); err != nil {
		t.Errorf("written trace is invalid: %v", err)
	}
}
