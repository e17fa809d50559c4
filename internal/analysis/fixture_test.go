package analysis

import (
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// fixtureRoot holds the fixture packages, in analysistest layout: the
// package with import path p lives in fixtureRoot/p.
var fixtureRoot = filepath.Join("testdata", "src")

// fixtureLoader type-checks fixture packages: import paths that exist
// under fixtureRoot resolve recursively from fixture source; everything
// else is the standard library, read from its export data.
type fixtureLoader struct {
	fset   *token.FileSet
	std    types.Importer
	loaded map[string]*Package
}

// Import implements types.Importer over the fixture tree.
func (l *fixtureLoader) Import(path string) (*types.Package, error) {
	if _, err := os.Stat(filepath.Join(fixtureRoot, filepath.FromSlash(path))); err != nil {
		return l.std.Import(path)
	}
	pkg, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return pkg.Pkg, nil
}

// load parses and checks the fixture package at fixtureRoot/path.
func (l *fixtureLoader) load(path string) (*Package, error) {
	if pkg, ok := l.loaded[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(fixtureRoot, filepath.FromSlash(path))
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

// loadFixture type-checks the named fixture packages as one program.
func loadFixture(t *testing.T, paths ...string) *Program {
	t.Helper()
	fset := token.NewFileSet()
	l := &fixtureLoader{fset: fset, std: importer.ForCompiler(fset, "gc", nil), loaded: make(map[string]*Package)}
	prog := &Program{Fset: fset}
	for _, path := range paths {
		pkg, err := l.load(path)
		if err != nil {
			t.Fatalf("loading fixture %q: %v", path, err)
		}
		prog.Packages = append(prog.Packages, pkg)
	}
	return prog
}

// runFixture runs the analyzer over the named fixture packages as one
// program and compares the diagnostics against the fixtures'
// expectations. An expectation is a trailing comment of the form
//
//	frame[0] = 1 // want `regexp`
//	x := now()   // want "first" "second"
//
// every diagnostic must match a same-line expectation and vice versa.
func runFixture(t *testing.T, a *Analyzer, paths ...string) {
	t.Helper()
	prog := loadFixture(t, paths...)
	diags := Run(prog, []*Analyzer{a})

	wants, err := parseWants(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		pos := prog.Fset.Position(d.Pos)
		key := posKey{pos.Filename, pos.Line}
		matched := false
		for i, w := range wants[key] {
			if !w.used && w.re.MatchString(d.Message) {
				wants[key][i].used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", key.file, key.line, w.re)
			}
		}
	}
}

type posKey struct {
	file string
	line int
}

type want struct {
	re   *regexp.Regexp
	used bool
}

// parseWants extracts the `// want` expectations from fixture sources.
func parseWants(prog *Program) (map[posKey][]want, error) {
	wants := make(map[posKey][]want)
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			name := prog.Fset.Position(file.Pos()).Filename
			src, err := os.ReadFile(name)
			if err != nil {
				return nil, err
			}
			for i, line := range strings.Split(string(src), "\n") {
				idx := strings.Index(line, "// want ")
				if idx < 0 {
					continue
				}
				patterns, err := parseWantPatterns(line[idx+len("// want "):])
				if err != nil {
					return nil, fmt.Errorf("%s:%d: %v", name, i+1, err)
				}
				key := posKey{name, i + 1}
				for _, p := range patterns {
					re, err := regexp.Compile(p)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want pattern: %v", name, i+1, err)
					}
					wants[key] = append(wants[key], want{re: re})
				}
			}
		}
	}
	return wants, nil
}

// parseWantPatterns splits a want payload into its quoted or backquoted
// regexp literals.
func parseWantPatterns(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		var quote byte
		switch s[0] {
		case '"', '`':
			quote = s[0]
		default:
			return nil, fmt.Errorf("want pattern must be quoted or backquoted: %q", s)
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			return nil, fmt.Errorf("unterminated want pattern: %q", s)
		}
		lit := s[:end+2]
		if quote == '"' {
			unq, err := strconv.Unquote(lit)
			if err != nil {
				return nil, err
			}
			out = append(out, unq)
		} else {
			out = append(out, lit[1:len(lit)-1])
		}
		s = strings.TrimSpace(s[end+2:])
	}
	return out, nil
}
