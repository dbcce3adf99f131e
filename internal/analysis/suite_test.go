package analysis

import (
	"strings"
	"testing"
)

// names extracts the analyzer names applicable to an import path.
func names(importPath string) []string {
	var out []string
	for _, a := range Applicable(importPath) {
		out = append(out, a.Name)
	}
	return out
}

func TestScoping(t *testing.T) {
	cases := []struct {
		path string
		want []string
	}{
		// Simulation packages get the full determinism contract.
		{Module + "/internal/sim", []string{"wallclock", "globalrand", "rawgoroutine", "maporder"}},
		{Module + "/internal/bufpool", []string{"wallclock", "globalrand", "rawgoroutine", "maporder"}},
		// The crash-consistency model checker replays schedules
		// bit-identically, so it must sit under the full determinism
		// contract like any other simulation package.
		{Module + "/internal/crashmc", []string{"wallclock", "globalrand", "rawgoroutine", "maporder"}},
		// Metrics and the experiment harness additionally get floatfold.
		{Module + "/internal/metrics", []string{"wallclock", "globalrand", "rawgoroutine", "maporder", "floatfold"}},
		{Module + "/internal/exp", []string{"wallclock", "globalrand", "rawgoroutine", "maporder", "floatfold"}},
		// slimio-top's output is CI-diffed and deterministic: the one cmd/
		// binary inside the contract.
		{Module + "/cmd/slimio-top", []string{"wallclock", "globalrand", "rawgoroutine", "maporder"}},
		// Harness binaries legitimately measure wall time; only ordered
		// output is policed there.
		{Module + "/cmd/slimio-bench", []string{"maporder"}},
		{Module, []string{"maporder"}},
		// The linter does not lint itself for simulation purity, but its
		// own output ordering is still a contract.
		{Module + "/internal/analysis", []string{"maporder"}},
		// Other modules are out of scope entirely.
		{"example.com/other", nil},
	}
	for _, c := range cases {
		got := names(c.path)
		if strings.Join(got, ",") != strings.Join(c.want, ",") {
			t.Errorf("Applicable(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

func TestSuiteRegistry(t *testing.T) {
	if len(All) != 5 {
		t.Fatalf("suite has %d passes, want 5", len(All))
	}
	known := Known()
	for _, sa := range All {
		if !known[sa.Name] {
			t.Errorf("Known() missing %s", sa.Name)
		}
		if !strings.Contains(sa.Doc, "\n") {
			t.Errorf("%s: Doc has no rationale beyond the summary line", sa.Name)
		}
		if strings.TrimSpace(sa.Doc) == "" {
			t.Errorf("%s: empty Doc", sa.Name)
		}
	}
}

// TestRunPackage drives the whole driver path over a fixture: a malformed
// allow directive (missing reason) surfaces as an "allow" finding, the real
// violation it fails to cover surfaces as a maporder finding, a well-formed
// directive suppresses, and findings come out in position order.
func TestRunPackage(t *testing.T) {
	pkgs, err := Load("", "./testdata/src/probe")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	findings, err := RunPackage(pkgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2:\n%v", len(findings), findings)
	}
	if findings[0].Analyzer != "allow" || !strings.Contains(findings[0].Message, "needs a reason") {
		t.Errorf("finding 0 = %v, want malformed-allow diagnostic", findings[0])
	}
	if findings[1].Analyzer != "maporder" || findings[1].Pos.Line <= findings[0].Pos.Line {
		t.Errorf("finding 1 = %v, want later-positioned maporder diagnostic", findings[1])
	}
}
