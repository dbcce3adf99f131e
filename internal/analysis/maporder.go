package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// maporderDoc's first line is the summary; the rest is the rationale.
const maporderDoc = `flag range-over-map whose body feeds ordered output or schedules events

Go randomizes map iteration order on purpose. A loop over a map that appends
to a slice, writes to a stream (fmt.Fprintf, Write, Encode), sends on a
channel, or schedules simulation events therefore produces a different
ordering every run — exactly the nondeterminism the bit-identical-output
contract forbids, and the kind that one determinism test on one workload
will not catch. The fix is to make ordering a contract: collect the keys,
sort them, and iterate the sorted slice. A body consisting solely of
"keys = append(keys, k)" (collecting loop variables) is recognized as that
idiom and not flagged, provided the same function passes keys to a sort.*
or slices.Sort* call. Copying into another map or deleting entries is
order-insensitive and also fine.
Suppress an intentional exception with //slimio:allow maporder <reason>.`

// Maporder is the maporder pass: it flags map iteration that feeds
// order-sensitive sinks.
var Maporder = &Analyzer{
	Name: "maporder",
	Doc:  maporderDoc,
	Run:  runMaporder,
}

var fmtPrinters = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Sprint": false, // Sprint* build values, not emit them; leave to the sink that prints them
}

var streamMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true,
}

func runMaporder(pass *Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			sorted := sortedSlices(pass.TypesInfo, decl)
			ast.Inspect(decl, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if !IsMapType(pass.TypesInfo, rng.X) {
					return true
				}
				if isKeyCollection(pass.TypesInfo, rng, sorted) {
					return true
				}
				if sink := findSink(pass, rng); sink != "" {
					pass.Reportf(rng.Pos(),
						"map iteration order is random but the loop body %s; sort the keys first and range over the sorted slice", sink)
				}
				return true
			})
		}
	}
	return nil, nil
}

// sortedSlices returns the variables decl passes as the first argument of a
// sort.* or slices.Sort* call.
func sortedSlices(info *types.Info, decl ast.Decl) map[types.Object]bool {
	sorted := map[types.Object]bool{}
	ast.Inspect(decl, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		if pkg, name := PkgFuncRef(info, call.Fun); pkg == "sort" || pkg == "slices" && strings.HasPrefix(name, "Sort") {
			if obj := refObj(info, call.Args[0]); obj != nil {
				sorted[obj] = true
			}
		}
		return true
	})
	return sorted
}

// isKeyCollection recognizes the collect-then-sort idiom: the whole loop
// body is a single `s = append(s, k)` (or `append(s, k, v)`) whose appended
// arguments are exactly the loop variables, and s is in sorted.
func isKeyCollection(info *types.Info, rng *ast.RangeStmt, sorted map[types.Object]bool) bool {
	if len(rng.Body.List) != 1 {
		return false
	}
	asg, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 || !sorted[refObj(info, asg.Lhs[0])] {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
		return false
	}
	loopVars := map[string]bool{}
	for _, v := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := v.(*ast.Ident); ok {
			loopVars[id.Name] = true
		}
	}
	if len(call.Args) < 2 {
		return false
	}
	for _, arg := range call.Args[1:] {
		id, ok := arg.(*ast.Ident)
		if !ok || !loopVars[id.Name] {
			return false
		}
	}
	return true
}

// findSink scans the loop body for the first order-sensitive side effect and
// describes it ("" when the body is order-insensitive).
func findSink(pass *Pass, rng *ast.RangeStmt) string {
	var sink string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			sink = "sends on a channel"
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				if call, ok := rhs.(*ast.CallExpr); ok {
					if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "append" {
						sink = "appends to a slice"
					}
				}
			}
		case *ast.CallExpr:
			if pkg, name := PkgFuncRef(pass.TypesInfo, n.Fun); pkg == "fmt" && fmtPrinters[name] {
				sink = "writes formatted output (fmt." + name + ")"
				return false
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				name := sel.Sel.Name
				switch {
				case streamMethods[name]:
					sink = "writes to a stream (." + name + ")"
				case strings.HasPrefix(name, "Spawn") || strings.HasPrefix(name, "Schedule"):
					sink = "schedules simulation work (." + name + ")"
				}
			}
		}
		return sink == ""
	})
	return sink
}
