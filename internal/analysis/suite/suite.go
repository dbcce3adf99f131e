// Package suite assembles the slimio-vet analyzers and decides which pass
// applies to which package. The scoping is the determinism contract's
// blast radius (documented in DESIGN.md "Determinism contract"):
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
package suite

import (
	"sort"
	"strings"

	"github.com/slimio/slimio/internal/analysis"
	"github.com/slimio/slimio/internal/analysis/floatfold"
	"github.com/slimio/slimio/internal/analysis/globalrand"
	"github.com/slimio/slimio/internal/analysis/load"
	"github.com/slimio/slimio/internal/analysis/maporder"
	"github.com/slimio/slimio/internal/analysis/rawgoroutine"
	"github.com/slimio/slimio/internal/analysis/wallclock"
)

// Module is the module path the scoping rules are anchored to.
const Module = "github.com/slimio/slimio"

// A ScopedAnalyzer pairs a pass with the import paths it governs.
type ScopedAnalyzer struct {
	*analysis.Analyzer
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

// All is the slimio-vet suite in reporting order.
var All = []ScopedAnalyzer{
	{wallclock.Analyzer, deterministic},
	{globalrand.Analyzer, deterministic},
	{rawgoroutine.Analyzer, deterministic},
	{maporder.Analyzer, inModule},
	{floatfold.Analyzer, floatScoped},
}

// Names returns every pass name (sorted), plus the pseudo-pass "allow"
// used for malformed suppression directives.
func Names() []string {
	names := make([]string, 0, len(All))
	for _, sa := range All {
		names = append(names, sa.Name)
	}
	sort.Strings(names)
	return names
}

// Known returns the valid //slimio:allow pass-name set.
func Known() map[string]bool {
	known := make(map[string]bool, len(All))
	for _, sa := range All {
		known[sa.Name] = true
	}
	return known
}

// Lookup finds a pass by name (nil when absent).
func Lookup(name string) *analysis.Analyzer {
	for _, sa := range All {
		if sa.Name == name {
			return sa.Analyzer
		}
	}
	return nil
}

// Applicable returns the analyzers that govern importPath.
func Applicable(importPath string) []*analysis.Analyzer {
	var out []*analysis.Analyzer
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
func RunPackage(pkg *load.Package) ([]analysis.Finding, error) {
	analyzers := Applicable(pkg.ImportPath)
	supp, malformed := analysis.NewSuppressions(pkg.Fset, pkg.Files, Known())

	var findings []analysis.Finding
	record := func(name string, d analysis.Diagnostic) {
		p := pkg.Fset.Position(d.Pos)
		findings = append(findings, analysis.Finding{
			Analyzer: name, Pos: p, File: p.Filename, Line: p.Line, Col: p.Column,
			Offset: p.Offset, Message: d.Message,
		})
	}
	for _, d := range malformed {
		record("allow", d)
	}
	for _, a := range analyzers {
		a := a
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Report: func(d analysis.Diagnostic) {
				if supp.Allowed(pkg.Fset, a.Name, d.Pos) {
					return
				}
				record(a.Name, d)
			},
		}
		if _, err := a.Run(pass); err != nil {
			return nil, err
		}
	}
	SortFindings(findings)
	return findings, nil
}

// SortFindings orders findings deterministically: by file, then byte
// offset, then reporting pass, then message. Drivers apply the same order
// to cross-package aggregates so two identical runs emit byte-identical
// output.
func SortFindings(findings []analysis.Finding) {
	sort.SliceStable(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Offset != b.Offset {
			return a.Offset < b.Offset
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
