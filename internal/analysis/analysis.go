// Package analysis holds the repository's determinism contract: five
// static-analysis passes (wallclock, globalrand, rawgoroutine, maporder,
// floatfold; see DESIGN.md "Determinism contract"), the scoping that says
// which package each governs, and the loader that type-checks packages from
// `go list -export` data. TestDeterminismContract runs every pass over the
// module, so plain `go test ./...` enforces the contract.
//
// The framework is a self-contained reimplementation of the core of
// golang.org/x/tools/go/analysis, built only on the standard library so the
// repository needs no external module. It mirrors the upstream API shape
// (Analyzer, Pass, Diagnostic) so each pass reads like an ordinary
// go/analysis pass.
//
// On top of the upstream shape it adds one repo-specific mechanism:
// `//slimio:allow <pass> <reason>` suppression comments. A diagnostic is
// suppressed when the reported line, or the line immediately above it,
// carries an allow comment naming the reporting pass and a non-empty
// justification. Malformed allow comments (no pass name, unknown pass,
// missing reason) are themselves diagnostics, so suppressions stay
// self-documenting.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the pass in diagnostics and in //slimio:allow
	// comments. It must be a valid identifier.
	Name string

	// Doc is a one-paragraph summary: first line is a short description,
	// the rest is the rationale TestDeterminismContract prints when the
	// pass finds something.
	Doc string

	// Run applies the pass to one package and reports findings via
	// pass.Report. The result value is unused (kept for upstream API
	// parity).
	Run func(pass *Pass) (any, error)
}

// A Pass provides one analyzer run with a single type-checked package and a
// sink for diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one finding. The driver installs this and applies
	// //slimio:allow filtering.
	Report func(Diagnostic)
}

// Reportf constructs a Diagnostic at pos and delivers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Finding is a fully resolved diagnostic: position translated through the
// file set and tagged with the reporting analyzer.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// AllowComment is one parsed //slimio:allow directive.
type AllowComment struct {
	Pos    token.Pos
	Line   int    // line the directive is written on
	Pass   string // analyzer name being suppressed ("" when malformed)
	Reason string // justification text ("" when missing)
}

const allowPrefix = "//slimio:allow"

// ParseAllowComments extracts every //slimio:allow directive from a file.
// Directives are recognized only as line comments (upstream directive
// convention: no space after //).
func ParseAllowComments(fset *token.FileSet, file *ast.File) []AllowComment {
	var out []AllowComment
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, allowPrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, allowPrefix)
			// Require a word boundary so "//slimio:allowance" is ignored.
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue
			}
			fields := strings.Fields(rest)
			ac := AllowComment{
				Pos:  c.Pos(),
				Line: fset.Position(c.Pos()).Line,
			}
			if len(fields) > 0 {
				ac.Pass = fields[0]
			}
			if len(fields) > 1 {
				ac.Reason = strings.Join(fields[1:], " ")
			}
			out = append(out, ac)
		}
	}
	return out
}

// Suppressions indexes a package's allow comments for diagnostic filtering.
type Suppressions struct {
	// byLine maps file base -> line -> passes allowed on that line.
	byLine map[string]map[int][]string
}

// NewSuppressions builds the index for a package and returns, alongside it,
// diagnostics for malformed directives. known names the valid pass names.
func NewSuppressions(fset *token.FileSet, files []*ast.File, known map[string]bool) (*Suppressions, []Diagnostic) {
	s := &Suppressions{byLine: make(map[string]map[int][]string)}
	var bad []Diagnostic
	for _, f := range files {
		for _, ac := range ParseAllowComments(fset, f) {
			switch {
			case ac.Pass == "":
				bad = append(bad, Diagnostic{Pos: ac.Pos,
					Message: "malformed //slimio:allow: want \"//slimio:allow <pass> <reason>\""})
				continue
			case known != nil && !known[ac.Pass]:
				bad = append(bad, Diagnostic{Pos: ac.Pos,
					Message: fmt.Sprintf("//slimio:allow names unknown pass %q (known: %s)", ac.Pass, knownList(known))})
				continue
			case ac.Reason == "":
				bad = append(bad, Diagnostic{Pos: ac.Pos,
					Message: fmt.Sprintf("//slimio:allow %s needs a reason: suppressions must be self-documenting", ac.Pass)})
				continue
			}
			file := fset.Position(ac.Pos).Filename
			if s.byLine[file] == nil {
				s.byLine[file] = make(map[int][]string)
			}
			s.byLine[file][ac.Line] = append(s.byLine[file][ac.Line], ac.Pass)
		}
	}
	return s, bad
}

// Allowed reports whether a diagnostic from pass at pos is suppressed: an
// allow directive for that pass sits on the same line or the line above.
func (s *Suppressions) Allowed(fset *token.FileSet, pass string, pos token.Pos) bool {
	p := fset.Position(pos)
	lines := s.byLine[p.Filename]
	if lines == nil {
		return false
	}
	for _, l := range []int{p.Line, p.Line - 1} {
		for _, name := range lines[l] {
			if name == pass {
				return true
			}
		}
	}
	return false
}

func knownList(known map[string]bool) string {
	names := make([]string, 0, len(known))
	for n := range known {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// Inspect walks every file in the pass in source order, calling fn for each
// node; fn returning false prunes the subtree (ast.Inspect semantics).
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}
