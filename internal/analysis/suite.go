package analysis

import (
	"fmt"
	"sort"
	"strings"
)

// Module is the module path the scoping rules are anchored to.
const Module = "github.com/slimio/slimio"

// A ScopedAnalyzer pairs a pass with the import paths it governs.
type ScopedAnalyzer struct {
	*Analyzer
	// Applies reports whether the pass runs on the package.
	Applies func(importPath string) bool
}

func deterministic(path string) bool {
	// slimio-top is the one binary under cmd/ inside the contract: its
	// output is CI-diffed and deterministic, so it obeys the same
	// clock/randomness/ordering rules as the simulation packages.
	if path == Module+"/cmd/slimio-top" {
		return true
	}
	if !strings.HasPrefix(path, Module+"/internal/") {
		return false
	}
	// The static-analysis tooling is not simulation code.
	return !strings.HasPrefix(path, Module+"/internal/analysis")
}

func inModule(path string) bool {
	return path == Module || strings.HasPrefix(path, Module+"/")
}

func floatScoped(path string) bool {
	return strings.HasPrefix(path, Module+"/internal/metrics") ||
		strings.HasPrefix(path, Module+"/internal/exp")
}

// All is the suite in reporting order. Its scoping is the determinism
// contract's blast radius (documented in DESIGN.md "Determinism contract"):
//
//   - wallclock, globalrand, rawgoroutine guard the deterministic
//     simulation packages (internal/..., minus the analysis tooling
//     itself) — this automatically covers new simulation packages such as
//     the crash-consistency model checker (internal/crashmc), whose
//     replay-bit-identically contract depends on exactly these passes: the
//     experiment harness binaries under cmd/ legitimately measure wall
//     time and never run inside the simulation. cmd/slimio-top is the one
//     exception: it renders CI-diffed deterministic output from telemetry
//     dumps, so it opts in (internal/telemetry itself is covered as an
//     internal/ package — its sampling tick rides the virtual clock).
//   - maporder applies module-wide (tooling included): ordered output must
//     be a contract everywhere, harness and linter alike.
//   - floatfold applies where float folds feed published numbers:
//     internal/metrics and internal/exp.
//
// Test files are never analyzed: tests may time themselves, fan out, and
// iterate maps freely — the contract governs what produces results, not
// what checks them.
var All = []ScopedAnalyzer{
	{Wallclock, deterministic},
	{Globalrand, deterministic},
	{Rawgoroutine, deterministic},
	{Maporder, inModule},
	{Floatfold, floatScoped},
}

// Known returns the valid //slimio:allow pass-name set.
func Known() map[string]bool {
	known := make(map[string]bool, len(All))
	for _, sa := range All {
		known[sa.Name] = true
	}
	return known
}

// Applicable returns the analyzers that govern importPath.
func Applicable(importPath string) []*Analyzer {
	var out []*Analyzer
	for _, sa := range All {
		if sa.Applies(importPath) {
			out = append(out, sa.Analyzer)
		}
	}
	return out
}

// RunPackage applies every applicable pass to one loaded package and
// returns the surviving (non-suppressed) findings plus malformed-allow
// findings, in source order.
func RunPackage(pkg *Package) ([]Finding, error) {
	return runPasses(pkg, Applicable(pkg.ImportPath), Known())
}

// runPasses applies analyzers to pkg. A finding an allow directive
// suppresses is dropped; a malformed directive (judged against the pass
// names in known) becomes a finding of the pseudo-pass "allow". Findings are
// ordered by file, then byte offset, then pass, then message.
func runPasses(pkg *Package, analyzers []*Analyzer, known map[string]bool) ([]Finding, error) {
	supp, malformed := NewSuppressions(pkg.Fset, pkg.Files, known)

	var findings []Finding
	record := func(name string, d Diagnostic) {
		findings = append(findings, Finding{Analyzer: name, Pos: pkg.Fset.Position(d.Pos), Message: d.Message})
	}
	for _, d := range malformed {
		record("allow", d)
	}
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Report: func(d Diagnostic) {
				if supp.Allowed(pkg.Fset, a.Name, d.Pos) {
					return
				}
				record(a.Name, d)
			},
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", pkg.ImportPath, a.Name, err)
		}
	}
	sort.SliceStable(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Offset != b.Pos.Offset {
			return a.Pos.Offset < b.Pos.Offset
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return findings, nil
}
