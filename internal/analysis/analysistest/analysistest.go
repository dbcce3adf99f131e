// Package analysistest runs an analyzer over fixture packages and checks
// its diagnostics against expectations written in the fixture source, in
// the style of golang.org/x/tools/go/analysis/analysistest.
//
// A fixture line carrying an expected diagnostic gets a trailing comment
//
//	code() // want "regexp" "another regexp"
//
// where each quoted string is a regular expression that must match the
// message of exactly one diagnostic reported on that line. Diagnostics with
// no matching want, and wants with no matching diagnostic, fail the test.
// A count prefix expects the same pattern several times on one line:
//
//	code() // want 2*"regexp"
//
// is shorthand for writing the quoted pattern twice.
//
// //slimio:allow suppression is applied exactly as the slimio-vet driver
// applies it, so a fixture can prove the suppression path works by pairing
// a violating line with an allow comment and no want. Malformed allow
// directives surface as diagnostics from the pseudo-pass "allow" and can be
// asserted with want comments too.
package analysistest

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/slimio/slimio/internal/analysis"
	"github.com/slimio/slimio/internal/analysis/load"
)

// TB is the slice of testing.TB the harness needs. It exists so the
// harness's own tests can substitute a recorder and assert which failures
// Run would report.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// Run loads the fixture package at pattern (a directory path relative to
// the test's working directory, e.g. "./testdata/src/a") and applies a.
func Run(t *testing.T, pattern string, a *analysis.Analyzer) {
	t.Helper()
	RunTB(t, pattern, a)
}

// RunTB is Run with a pluggable failure sink.
func RunTB(t TB, pattern string, a *analysis.Analyzer) {
	t.Helper()
	pkgs, err := load.Load("", pattern)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pattern, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s matched no packages", pattern)
	}
	for _, pkg := range pkgs {
		checkPackage(t, pkg, a)
	}
}

type want struct {
	re      *regexp.Regexp
	matched bool
}

func checkPackage(t TB, pkg *load.Package, a *analysis.Analyzer) {
	t.Helper()

	wants := collectWants(t, pkg)

	known := map[string]bool{a.Name: true}
	supp, malformed := analysis.NewSuppressions(pkg.Fset, pkg.Files, known)

	var findings []analysis.Finding
	record := func(name string, d analysis.Diagnostic) {
		p := pkg.Fset.Position(d.Pos)
		findings = append(findings, analysis.Finding{
			Analyzer: name, Pos: p, File: p.Filename, Line: p.Line, Col: p.Column,
			Message: d.Message,
		})
	}
	for _, d := range malformed {
		record("allow", d)
	}
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
		t.Fatalf("%s: analyzer error: %v", a.Name, err)
	}

	for _, f := range findings {
		if !claimWant(wants, f) {
			t.Errorf("%s: unexpected diagnostic: %s", a.Name, f)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: no diagnostic at %s matching %q", a.Name, key, w.re)
			}
		}
	}
}

func claimWant(wants map[string][]*want, f analysis.Finding) bool {
	key := fmt.Sprintf("%s:%d", f.File, f.Line)
	for _, w := range wants[key] {
		if !w.matched && w.re.MatchString(f.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

// wantRE tokenizes the expectation list: double-quoted or backquoted Go
// string literals, each holding one regexp, optionally prefixed with a
// repeat count as in 2*"re".
var wantRE = regexp.MustCompile("(?:(\\d+)\\*)?(\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)")

// collectWants scans fixture comments for `// want "re"...` expectations.
func collectWants(t TB, pkg *load.Package) map[string][]*want {
	t.Helper()
	wants := make(map[string][]*want)
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, tok := range wantRE.FindAllStringSubmatch(text[len("want "):], -1) {
					count := 1
					if tok[1] != "" {
						n, err := strconv.Atoi(tok[1])
						if err != nil || n < 1 {
							t.Fatalf("%s: bad want count %q", key, tok[1])
						}
						count = n
					}
					unq, err := strconv.Unquote(tok[2])
					if err != nil {
						t.Fatalf("%s: bad want string %s: %v", key, tok[2], err)
					}
					re, err := regexp.Compile(unq)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", key, unq, err)
					}
					// A counted want is sugar for the same pattern repeated:
					// each instance must claim a distinct diagnostic.
					for i := 0; i < count; i++ {
						wants[key] = append(wants[key], &want{re: re})
					}
				}
			}
		}
	}
	return wants
}
