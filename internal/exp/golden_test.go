package exp

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run instead of comparing")

// checkGolden pins a rendered tiny-scale report to testdata/<name>.golden.
// The run-to-run determinism tests only prove a build agrees with itself; a
// refactor that shifts every event the same way in every run would pass
// them, and fails here. Regenerate (only for an intended behaviour change)
// with `go test ./internal/exp -run 'Golden|Identical|IsolationDeterminism|InspectReport' -update`.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the committed golden:\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// TestTable5TinyGolden pins the recovery table; Table 3 and the isolation
// report are pinned by the tests that already compute them at tiny scale.
func TestTable5TinyGolden(t *testing.T) {
	res, err := RunTable5(TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table5_tiny", res.String())
}
