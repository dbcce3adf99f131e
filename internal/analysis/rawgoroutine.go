package analysis

import "go/ast"

// rawgoroutineDoc's first line is the summary; the rest is the rationale.
const rawgoroutineDoc = `forbid raw goroutines, sync.WaitGroup, and time.Ticker in deterministic packages

The simulator is cooperative: exactly one simulation process runs at a time,
resumed by the engine's baton, which is what makes event order — and
therefore every result byte — reproducible. A raw go statement inside
simulation code introduces host-scheduler interleaving the engine cannot
order; sync.WaitGroup and time.Ticker are the companion primitives of that
style. All simulated concurrency must go through internal/sim
(Engine.Spawn, SpawnDaemon, resources, signals). The two sanctioned
exceptions carry //slimio:allow comments: the engine itself implements
processes as baton-passing goroutines, and the experiment scheduler's
worker pool (internal/exp/parallel.go) runs whole isolated cells in
parallel. Suppress further exceptions with //slimio:allow rawgoroutine
<reason>.`

// Rawgoroutine is the rawgoroutine pass: it forbids raw concurrency
// primitives in deterministic packages.
var Rawgoroutine = &Analyzer{
	Name: "rawgoroutine",
	Doc:  rawgoroutineDoc,
	Run:  runRawgoroutine,
}

// forbiddenTypes maps package path -> type name -> short reason.
var forbiddenTypes = map[string]map[string]string{
	"sync": {"WaitGroup": "host-scheduler synchronization"},
	"time": {"Ticker": "wall-clock periodic events", "Timer": "wall-clock delayed events"},
}

func runRawgoroutine(pass *Pass) (any, error) {
	pass.Inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Pos(),
				"raw go statement in a deterministic package; spawn simulation processes through internal/sim (Engine.Spawn)")
		case *ast.SelectorExpr:
			// Flag mentions of the forbidden types themselves (var decls,
			// struct fields, parameters), not arbitrary expressions of the
			// type, so each declaration is reported once.
			tv, ok := pass.TypesInfo.Types[n]
			if !ok || !tv.IsType() {
				return true
			}
			pkg, name := NamedTypePath(tv.Type)
			if reason, ok := forbiddenTypes[pkg][name]; ok {
				pass.Reportf(n.Pos(),
					"%s.%s (%s) in a deterministic package; use internal/sim primitives", pkg, name, reason)
			}
		}
		return true
	})
	return nil, nil
}
