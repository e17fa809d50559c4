package analysis

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

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// excludedByBuildTags reports whether p failed to list only because build
// constraints exclude every file on this platform/config — a package the
// linter should skip, not a reason to fail the whole run (a GOOS-gated
// package or an all-`//go:build ignore` tools directory is legitimate
// repo content).
func excludedByBuildTags(p *listedPkg) bool {
	return p.Error != nil && len(p.GoFiles) == 0 &&
		strings.Contains(p.Error.Err, "build constraints exclude all Go files")
}

// goList shells out to the go tool, which works fully offline: export
// data for dependencies (the standard library included) comes from the
// local build cache, compiling on first use.
func goList(patterns ...string) ([]*listedPkg, error) {
	args := append([]string{"list", "-e", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,DepOnly,Standard,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, errb.String())
	}
	var pkgs []*listedPkg
	dec := json.NewDecoder(&out)
	for {
		p := new(listedPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding: %v", patterns, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Load lists, parses, and type-checks the packages matching patterns
// (e.g. "./..."). Imports — including the module's own packages when they
// appear as dependencies — resolve through compiled export data, so only
// the matched packages themselves are parsed from source.
func Load(patterns ...string) (*Program, error) {
	pkgs, err := goList(patterns...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	var targets []*listedPkg
	seen := make(map[string]bool)
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			if excludedByBuildTags(p) {
				continue
			}
			// `go list -e` reports broken patterns as packages with an
			// Error instead of failing; surface them, or a typoed pattern
			// would silently lint nothing and exit clean.
			if p.Error != nil {
				return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
			}
			// Overlapping patterns ("./...", "./internal/...") list the
			// same package more than once; parse and check it once, or
			// every diagnostic in it doubles.
			if seen[p.ImportPath] {
				continue
			}
			seen[p.ImportPath] = true
			targets = append(targets, p)
		}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("no packages matched %v", patterns)
	}

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	prog := &Program{Fset: fset}
	for _, t := range targets {
		pkg, err := checkPackage(fset, imp, t.ImportPath, t.Dir, t.GoFiles)
		if err != nil {
			return nil, err
		}
		prog.Packages = append(prog.Packages, pkg)
	}
	return prog, nil
}

// exportImporter returns an importer that reads compiled gc export data
// through the path→file map `go list -export` produced.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// checkPackage parses files and type-checks them as one package.
func checkPackage(fset *token.FileSet, imp types.Importer, path, dir string, files []string) (*Package, error) {
	var asts []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		asts = append(asts, f)
	}
	info := &types.Info{
		Types:     make(map[ast.Expr]types.TypeAndValue),
		Defs:      make(map[*ast.Ident]types.Object),
		Uses:      make(map[*ast.Ident]types.Object),
		Instances: make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, asts, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	return &Package{Files: asts, Pkg: tpkg, TypesInfo: info}, nil
}
