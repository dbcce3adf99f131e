package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// floatfoldDoc's first line is the summary; the rest is the rationale.
const floatfoldDoc = `flag floating-point accumulation inside range-over-map loops

Floating-point addition and multiplication are not associative: folding the
same set of float64 values in two different orders can differ in the last
ulp, and map iteration order changes every run. A metrics table or figure
cell computed by accumulating floats over a map would therefore flip its
low bits between runs — breaking byte-identical output in a way that is
practically impossible to debug after the fact. Accumulate over a sorted
key slice, accumulate integers (the metrics package's histograms and
counters are integer-exact for this reason), or restructure so the fold
order is fixed. Suppress an intentional exception with
//slimio:allow floatfold <reason>.`

// Floatfold is the floatfold pass: it flags order-dependent floating-point
// accumulation over map iteration.
var Floatfold = &Analyzer{
	Name: "floatfold",
	Doc:  floatfoldDoc,
	Run:  runFloatfold,
}

var foldOps = map[token.Token]bool{
	token.ADD_ASSIGN: true,
	token.SUB_ASSIGN: true,
	token.MUL_ASSIGN: true,
	token.QUO_ASSIGN: true,
}

func runFloatfold(pass *Pass) (any, error) {
	pass.Inspect(func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if !IsMapType(pass.TypesInfo, rng.X) {
			return true
		}
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			asg, ok := m.(*ast.AssignStmt)
			if !ok {
				return true
			}
			if isFloatFold(pass.TypesInfo, asg) {
				pass.Reportf(asg.Pos(),
					"floating-point accumulation in map-iteration order is non-associative and changes between runs; fold over sorted keys or accumulate integers")
			}
			return true
		})
		return true
	})
	return nil, nil
}

// isFloatFold recognizes `x op= expr` with float x, and the spelled-out
// `x = x + expr` / `x = expr + x` forms.
func isFloatFold(info *types.Info, asg *ast.AssignStmt) bool {
	if len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	lhs, rhs := asg.Lhs[0], asg.Rhs[0]
	if !IsFloat(info, lhs) {
		return false
	}
	if foldOps[asg.Tok] {
		return true
	}
	if asg.Tok != token.ASSIGN {
		return false
	}
	bin, ok := rhs.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch bin.Op {
	case token.ADD, token.MUL, token.SUB, token.QUO:
	default:
		return false
	}
	lobj := refObj(info, lhs)
	if lobj == nil {
		return false
	}
	return refObj(info, bin.X) == lobj || refObj(info, bin.Y) == lobj
}

// refObj resolves a plain identifier (or selector's field) to its object so
// `x = x + y` can match LHS and RHS occurrences of the same variable.
func refObj(info *types.Info, expr ast.Expr) types.Object {
	switch e := expr.(type) {
	case *ast.Ident:
		if o := info.Uses[e]; o != nil {
			return o
		}
		return info.Defs[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}
