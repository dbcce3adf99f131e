package analysistest_test

import (
	"fmt"
	"go/ast"
	"strings"
	"testing"

	"github.com/slimio/slimio/internal/analysis"
	"github.com/slimio/slimio/internal/analysis/analysistest"
)

// marker reports every direct call expression: a trivially predictable
// analyzer, so the self-tests exercise only the harness.
var marker = &analysis.Analyzer{
	Name: "marker",
	Doc:  "report every direct call (analysistest self-test fixture)",
	Run: func(pass *analysis.Pass) (any, error) {
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
	analysistest.RunTB(rec, "./testdata/src/bad", marker)
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
