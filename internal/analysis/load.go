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
	"runtime"
	"sort"
	"strings"
	"sync"
)

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath string
	Name       string
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
func goList(extra []string, patterns ...string) ([]*listedPkg, error) {
	args := append([]string{"list"}, extra...)
	args = append(args, "-json=ImportPath,Name,Dir,GoFiles,Export,DepOnly,Standard,Error")
	args = append(args, patterns...)
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
	pkgs, err := goList([]string{"-e", "-deps", "-export"}, patterns...)
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
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	// Targets type-check independently — every import, including sibling
	// targets, resolves through compiled export data — so spread them over
	// the cores. The importer caches into a shared map and is serialized
	// by lockedImporter; the FileSet is goroutine-safe by contract.
	imp := &lockedImporter{imp: exportImporter(fset, exports)}
	prog := &Program{Fset: fset}
	prog.Packages = make([]*Package, len(targets))
	errs := make([]error, len(targets))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, t := range targets {
		wg.Add(1)
		//lint:ignore virtclock host tooling, not simulated-world code: the linter's own bounded worker pool, joined by wg.Wait before any result is read
		go func(i int, t *listedPkg) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			prog.Packages[i], errs[i] = checkPackage(fset, imp, t.ImportPath, t.Dir, t.GoFiles)
		}(i, t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return prog, nil
}

// lockedImporter serializes a non-goroutine-safe importer (the gc
// export-data importer caches packages in a plain map) for the parallel
// type-check above.
type lockedImporter struct {
	mu  sync.Mutex
	imp types.Importer
}

func (l *lockedImporter) Import(path string) (*types.Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.imp.Import(path)
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
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, asts, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	return &Package{PkgPath: path, Fset: fset, Files: asts, Pkg: tpkg, TypesInfo: info}, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Instances:  make(map[*ast.Ident]types.Instance),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// fixtureLoader type-checks analysistest fixture trees: import paths that
// exist under root resolve recursively from fixture source; everything
// else resolves via standard-library export data.
type fixtureLoader struct {
	root   string // testdata/src
	fset   *token.FileSet
	std    types.Importer
	stdmap map[string]string
	loaded map[string]*Package
}

func newFixtureLoader(root string) (*fixtureLoader, error) {
	l := &fixtureLoader{
		root:   root,
		fset:   token.NewFileSet(),
		stdmap: make(map[string]string),
		loaded: make(map[string]*Package),
	}
	// Resolve standard-library export data for every non-fixture import
	// reachable from the tree, in one go-list invocation.
	stdPaths := map[string]bool{}
	err := filepath.Walk(root, func(p string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() || filepath.Ext(p) != ".go" {
			return err
		}
		f, err := parser.ParseFile(l.fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, im := range f.Imports {
			path := im.Path.Value[1 : len(im.Path.Value)-1]
			if _, statErr := os.Stat(filepath.Join(root, filepath.FromSlash(path))); statErr != nil {
				stdPaths[path] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(stdPaths) > 0 {
		var paths []string
		for p := range stdPaths {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		pkgs, err := goList([]string{"-deps", "-export"}, paths...)
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if p.Export != "" {
				l.stdmap[p.ImportPath] = p.Export
			}
		}
	}
	l.std = exportImporter(l.fset, l.stdmap)
	return l, nil
}

// Import implements types.Importer over the fixture tree.
func (l *fixtureLoader) Import(path string) (*types.Package, error) {
	if pkg, err := l.load(path); err == nil {
		return pkg.Pkg, nil
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	return l.std.Import(path)
}

// load parses and checks the fixture package at root/path.
func (l *fixtureLoader) load(path string) (*Package, error) {
	if pkg, ok := l.loaded[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			files = append(files, e.Name())
		}
	}
	pkg, err := checkPackage(l.fset, l, path, dir, files)
	if err != nil {
		return nil, err
	}
	l.loaded[path] = pkg
	return pkg, nil
}
