// Command slimio-vet enforces the repository's determinism contract with a
// suite of custom static-analysis passes (see DESIGN.md "Determinism
// contract" and `slimio-vet -list`).
//
// Standalone usage:
//
//	slimio-vet ./...              # lint packages, exit 1 on findings
//	slimio-vet -json ./...        # machine-readable findings
//	slimio-vet -list              # one-line summary of every pass
//	slimio-vet -explain maporder  # a pass's full rationale
//
// Suppress an intentional violation with a trailing or preceding comment:
//
//	//slimio:allow <pass> <reason>
//
// The reason is mandatory; malformed directives are themselves findings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/slimio/slimio/internal/analysis"
	"github.com/slimio/slimio/internal/analysis/load"
	"github.com/slimio/slimio/internal/analysis/suite"
)

func main() {
	var (
		jsonOut  = flag.Bool("json", false, "emit findings as JSON on stdout")
		sarifOut = flag.String("sarif", "", "also write findings as SARIF 2.1.0 to the named file")
		explain  = flag.String("explain", "", "print the named pass's rationale and exit (\"all\" for every pass)")
		list     = flag.Bool("list", false, "list passes with one-line summaries and exit")
	)
	flag.Parse()

	if *list {
		for _, sa := range suite.All {
			fmt.Printf("%-14s %s\n", sa.Name, strings.SplitN(sa.Doc, "\n", 2)[0])
		}
		return
	}
	if *explain != "" {
		if err := printExplain(*explain); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}

	findings, err := runStandalone(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slimio-vet:", err)
		os.Exit(2)
	}
	if *sarifOut != "" {
		if err := writeSARIF(*sarifOut, findings); err != nil {
			fmt.Fprintln(os.Stderr, "slimio-vet:", err)
			os.Exit(2)
		}
	}
	if *jsonOut {
		out := struct {
			Findings []analysis.Finding `json:"findings"`
			Count    int                `json:"count"`
		}{Findings: findings, Count: len(findings)}
		if out.Findings == nil {
			out.Findings = []analysis.Finding{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "slimio-vet:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "slimio-vet: %d finding(s)\n", len(findings))
		}
		os.Exit(1)
	}
}

func runStandalone(patterns []string) ([]analysis.Finding, error) {
	pkgs, err := load.Load("", patterns...)
	if err != nil {
		return nil, err
	}
	cwd, _ := os.Getwd()
	var all []analysis.Finding
	for _, pkg := range pkgs {
		findings, err := suite.RunPackage(pkg)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", pkg.ImportPath, err)
		}
		for i := range findings {
			findings[i].File = relPath(cwd, findings[i].File)
		}
		all = append(all, findings...)
	}
	// Re-sort the aggregate: per-package order is deterministic, but files
	// shared across test variants (and relativized paths) must land in one
	// global order so two runs emit byte-identical output.
	suite.SortFindings(all)
	return all, nil
}

func relPath(base, path string) string {
	if base == "" {
		return path
	}
	if rel, err := filepath.Rel(base, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}

func printExplain(name string) error {
	if name == "all" {
		for i, sa := range suite.All {
			if i > 0 {
				fmt.Println()
			}
			fmt.Printf("# %s\n\n%s\n", sa.Name, sa.Doc)
		}
		return nil
	}
	a := suite.Lookup(name)
	if a == nil {
		return fmt.Errorf("unknown pass %q (known: %s)", name, strings.Join(suite.Names(), ", "))
	}
	fmt.Printf("# %s\n\n%s\n", a.Name, a.Doc)
	return nil
}
