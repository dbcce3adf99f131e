package analysis

// The loader turns package patterns into parsed, type-checked packages for
// the analyzers, using only the standard library plus the go tool itself:
// `go list -export` supplies compiled export data for every dependency
// (exactly the mechanism `go vet` uses), so no source-importer or external
// loader module is needed and no network is touched.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one type-checked target package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listed mirrors the `go list -json` fields we consume.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

func goList(dir string, args ...string) ([]listed, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []listed
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Load type-checks the packages matched by patterns (resolved relative to
// dir; dir == "" means the current directory). Only non-test Go files are
// loaded: the determinism contract governs production code, and tests
// legitimately measure wall time.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"."}
	}

	// One invocation resolves the target set AND compiles export data for
	// the whole dependency universe (-deps).
	args := append([]string{"-e", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,ImportMap,Error"}, patterns...)
	universe, err := goList(dir, args...)
	if err != nil {
		return nil, err
	}
	exportFor := make(map[string]string, len(universe))
	for _, p := range universe {
		if p.Export != "" {
			exportFor[p.ImportPath] = p.Export
		}
	}

	// A second, cheap invocation distinguishes the targets from their deps.
	targets, err := goList(dir, append([]string{"-e", "-json=ImportPath,Error"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	isTarget := make(map[string]bool, len(targets))
	for _, p := range targets {
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s", p.Error.Err)
		}
		isTarget[p.ImportPath] = true
	}

	fset := token.NewFileSet()
	// One shared importer caches each dependency's export data across all
	// target packages.
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exportFor[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})

	var out []*Package
	for _, p := range universe {
		if !isTarget[p.ImportPath] || len(p.GoFiles) == 0 {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkg, err := typecheck(fset, imp, p)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

func typecheck(fset *token.FileSet, imp types.Importer, p listed) (*Package, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := &types.Config{Importer: imp}
	tpkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", p.ImportPath, err)
	}
	return &Package{
		ImportPath: p.ImportPath,
		Dir:        p.Dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}
