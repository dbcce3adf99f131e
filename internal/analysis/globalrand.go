package analysis

import "go/ast"

// globalrandDoc's first line is the summary; the rest is the rationale.
const globalrandDoc = `forbid global math/rand state and crypto/rand in deterministic packages

Reproducing the paper's results depends on every random draw flowing from an
explicitly seeded *rand.Rand owned by the component drawing it (workload
generator, fault plan, SSD latency jitter). The top-level math/rand
functions share one process-global source: any draw from it is perturbed by
unrelated code and by package initialization order, silently breaking
bit-identical replay. crypto/rand is nondeterministic by design and is never
acceptable in simulation code. Constructors (rand.New, rand.NewSource,
rand.NewZipf) remain allowed — they are how the seeded sources are built.
Suppress an intentional exception with //slimio:allow globalrand <reason>.`

// globalrandForbidden lists the math/rand package-level functions that draw
// from (or mutate) the shared global source.
var globalrandForbidden = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "NormFloat64": true, "ExpFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
	// math/rand/v2 spellings of the same global draws.
	"N": true, "IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "Uint32N": true, "Uint64N": true, "UintN": true, "Uint": true,
}

var randPkgs = map[string]bool{"math/rand": true, "math/rand/v2": true}

// Globalrand is the globalrand pass: it forbids process-global randomness in
// deterministic packages.
var Globalrand = &Analyzer{
	Name: "globalrand",
	Doc:  globalrandDoc,
	Run:  runGlobalrand,
}

func runGlobalrand(pass *Pass) (any, error) {
	for _, f := range pass.Files {
		if imp, ok := Imports(f, "crypto/rand"); ok {
			pass.Reportf(imp.Pos(),
				"crypto/rand is nondeterministic; deterministic packages must draw from a seeded *rand.Rand")
		}
	}
	pass.Inspect(func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, name := PkgFuncRef(pass.TypesInfo, sel)
		if randPkgs[pkg] && globalrandForbidden[name] {
			pass.Reportf(sel.Pos(),
				"rand.%s draws from the process-global source; use an explicitly seeded *rand.Rand", name)
		}
		return true
	})
	return nil, nil
}
