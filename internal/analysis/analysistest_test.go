package analysis

import (
	"fmt"
	"go/ast"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The fixture harness runs an analyzer over a fixture package and checks
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
// //slimio:allow suppression is applied exactly as RunPackage applies it,
// so a fixture can prove the suppression path works by pairing a violating
// line with an allow comment and no want. Malformed allow directives
// surface as diagnostics from the pseudo-pass "allow" and can be asserted
// with want comments too.

// TB is the slice of testing.TB the harness needs. It exists so the
// harness's own test can substitute a recorder and assert which failures
// runFixture would report.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// TestPassFixtures runs each pass over its fixture, testdata/src/<pass>.
func TestPassFixtures(t *testing.T) {
	for _, sa := range All {
		t.Run(sa.Name, func(t *testing.T) {
			runFixture(t, "./testdata/src/"+sa.Name, sa.Analyzer)
		})
	}
}

// runFixture loads the fixture package at pattern (a directory path
// relative to the test's working directory) and applies a.
func runFixture(t TB, pattern string, a *Analyzer) {
	t.Helper()
	pkgs, err := Load("", pattern)
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

func checkPackage(t TB, pkg *Package, a *Analyzer) {
	t.Helper()

	wants := collectWants(t, pkg)
	findings, err := runPasses(pkg, []*Analyzer{a}, map[string]bool{a.Name: true})
	if err != nil {
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

func claimWant(wants map[string][]*want, f Finding) bool {
	key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
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
func collectWants(t TB, pkg *Package) map[string][]*want {
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

// marker reports every direct call expression: a trivially predictable
// analyzer, so the self-test exercises only the harness.
var marker = &Analyzer{
	Name: "marker",
	Doc:  "report every direct call (fixture-harness self-test)",
	Run: func(pass *Pass) (any, error) {
		pass.Inspect(func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok {
					pass.Reportf(call.Pos(), "call of %s", id.Name)
				}
			}
			return true
		})
		return nil, nil
	},
}

// recorder captures the failures the harness would report.
type recorder struct {
	errors []string
	fatals []string
}

func (r *recorder) Helper() {}
func (r *recorder) Errorf(format string, args ...any) {
	r.errors = append(r.errors, fmt.Sprintf(format, args...))
}
func (r *recorder) Fatalf(format string, args ...any) {
	r.fatals = append(r.fatals, fmt.Sprintf(format, args...))
}

// TestHarnessFlagsMismatches proves the harness actually fails on the two
// mismatch classes: a want with no diagnostic (here via an overcounted
// 2*"re") and a diagnostic with no want.
func TestHarnessFlagsMismatches(t *testing.T) {
	rec := &recorder{}
	runFixture(rec, "./testdata/src/bad", marker)
	if len(rec.fatals) != 0 {
		t.Fatalf("unexpected fatal failures: %v", rec.fatals)
	}
	if len(rec.errors) != 2 {
		t.Fatalf("got %d failures, want 2: %v", len(rec.errors), rec.errors)
	}
	var unmatchedWant, unexpectedDiag bool
	for _, e := range rec.errors {
		if strings.Contains(e, "no diagnostic at") {
			unmatchedWant = true
		}
		if strings.Contains(e, "unexpected diagnostic") {
			unexpectedDiag = true
		}
	}
	if !unmatchedWant || !unexpectedDiag {
		t.Errorf("failure classes missing (unmatched want: %v, unexpected diagnostic: %v): %v",
			unmatchedWant, unexpectedDiag, rec.errors)
	}
}
