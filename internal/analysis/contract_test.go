package analysis

import (
	"io/fs"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// detFixture violates several passes on purpose; it lives under
// internal/exp, so every pass governs it.
const detFixture = "./internal/exp/testdata/src/det"

// TestDeterminismContract lints the module with every pass, one subtest per
// pass, so plain `go test ./...` enforces the determinism contract. Two
// checks keep it from passing vacuously: it must have type-checked every
// package `go list ./...` names, and at least three passes must fire on
// detFixture.
func TestDeterminismContract(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "./...", detFixture)
	if err != nil {
		t.Fatal(err)
	}
	listCmd := exec.Command("go", "list", "./...")
	listCmd.Dir = root
	listed, err := listCmd.Output()
	if err != nil {
		t.Fatalf("go list ./...: %v", err)
	}

	checked := map[string]bool{}
	fired := map[string]bool{}
	byPass := map[string][]Finding{}
	for _, pkg := range pkgs {
		findings, err := RunPackage(pkg)
		if err != nil {
			t.Fatal(err)
		}
		if pkg.ImportPath == Module+strings.TrimPrefix(detFixture, ".") {
			for _, f := range findings {
				fired[f.Analyzer] = true
			}
			continue
		}
		checked[pkg.ImportPath] = true
		for _, f := range findings {
			byPass[f.Analyzer] = append(byPass[f.Analyzer], f)
		}
	}
	for _, path := range strings.Fields(string(listed)) {
		if !checked[path] {
			t.Errorf("%s was not type-checked", path)
		}
	}
	if len(fired) < 3 {
		t.Errorf("%s tripped %d passes (%v), want >= 3", detFixture, len(fired), fired)
	}

	report := func(t *testing.T, f Finding) {
		t.Helper()
		t.Errorf("%s:%d: %s", strings.TrimPrefix(f.Pos.Filename, root+"/"), f.Pos.Line, f.Message)
	}
	for _, f := range byPass["allow"] {
		report(t, f)
	}
	for _, sa := range All {
		t.Run(sa.Name, func(t *testing.T) {
			for _, f := range byPass[sa.Name] {
				report(t, f)
			}
			if t.Failed() {
				t.Log(sa.Doc)
			}
		})
	}

	// go test caches a pass against the files this process opened, and the
	// loader parsed every linted source file. Opening every directory too
	// makes an added file or package invalidate that cache entry; a
	// directory the walk cannot read has nothing to lint, so its error is
	// dropped.
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata" || d.Name() == "out") {
			return filepath.SkipDir
		}
		return nil
	})
}
