package analysis

import "go/ast"

// wallclockDoc's first line is the summary; the rest is the rationale.
const wallclockDoc = `forbid wall-clock time in deterministic simulation packages

Every seeded run of the simulator must be bit-identical: the paper's WAF and
latency numbers are reproduced structurally, not statistically, and the
determinism regression test compares full output bytes across runs. A single
time.Now, time.Sleep, or timer in simulation code makes results depend on
host scheduling and clock resolution. Virtual time must come from
internal/sim (Engine.Now, Env.Sleep, sim.Duration); the experiment harness
binaries (cmd/*) may measure wall time, deterministic packages may not.
Suppress an intentional exception with //slimio:allow wallclock <reason>.`

// wallclockForbidden lists the package-level time functions that read or
// wait on the host clock. Constructors like time.Duration arithmetic and
// formatting are fine; anything observing "now" is not.
var wallclockForbidden = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

// Wallclock is the wallclock pass: it forbids wall-clock access in
// deterministic packages.
var Wallclock = &Analyzer{
	Name: "wallclock",
	Doc:  wallclockDoc,
	Run:  runWallclock,
}

func runWallclock(pass *Pass) (any, error) {
	pass.Inspect(func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, name := PkgFuncRef(pass.TypesInfo, sel)
		if pkg == "time" && wallclockForbidden[name] {
			pass.Reportf(sel.Pos(),
				"time.%s reads the wall clock; deterministic packages must use virtual time from internal/sim", name)
		}
		return true
	})
	return nil, nil
}
