// Package analysis is a self-contained, dependency-free re-implementation
// of the golang.org/x/tools/go/analysis surface this repository needs: a
// set of static analyzers ("simlint") that mechanically enforce the
// simulator's design invariants (DESIGN.md "Invariants as analyzers") and
// a package loader built on `go list -export` plus the standard library's
// gc export-data importer.
//
// The contracts these analyzers encode are the ones everything downstream
// leans on: the byte-identical golden Chrome trace and the seeded
// offload-vs-software equivalence soak assume virtual-clock purity and
// seeded randomness (virtclock); every Stats struct is read by someone,
// through the registry or a telemetry merge (statsreg); the ECN path
// assumes serialized frames are only mutated through checksum-repairing
// helpers (wiremut); and the hand-tuned batch loop assumes its per-packet
// paths stay allocation-free and take their frames from the pool
// (hotalloc). A violation fails `make lint` (inside `make check`) at
// source level instead of flaking a soak after the fact. Contracts a
// package can check on itself are not here: telemetry's nil-safe hooks,
// dotted-lowercase names and counter-struct shape are checked by its own
// tests and at registration.
//
// The driver that cmd/simlint fronts (driver.go) knows one way to silence
// a finding: a reasoned `//lint:ignore`. Malformed directives are
// findings. The run is serial and its diagnostics are position-sorted.
package analysis

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Analyzer is one named check. Run executes per package; RunProgram, when
// set, executes once after every package with whole-program visibility
// (used by statsreg, whose "is it registered anywhere" question spans
// packages).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
	// RunProgram runs after all per-package passes with the whole
	// program in view. Either Run or RunProgram (or both) may be set.
	RunProgram func(*Program) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	*Package
	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Package is one loaded, parsed, and type-checked package.
type Package struct {
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// Program is the full set of packages one simlint invocation analyzes.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package

	report func(Diagnostic)
}

// Reportf records a whole-program diagnostic at pos.
func (p *Program) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Run executes the analyzers over the program, each over every package in
// turn and then over the whole program, and returns their diagnostics
// sorted by position, analyzer and message.
func Run(prog *Program, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		report := func(d Diagnostic) {
			d.Analyzer = a.Name
			diags = append(diags, d)
		}
		fail := func(err error) {
			report(Diagnostic{Pos: token.NoPos, Message: fmt.Sprintf("internal error: %v", err)})
		}
		if a.Run != nil {
			for _, pkg := range prog.Packages {
				if err := a.Run(&Pass{Package: pkg, report: report}); err != nil {
					fail(err)
				}
			}
		}
		if a.RunProgram != nil {
			prog.report = report
			if err := a.RunProgram(prog); err != nil {
				fail(err)
			}
			prog.report = nil
		}
	}
	sortDiagnostics(prog, diags)
	return diags
}

// sortDiagnostics orders diags by the full key — position, analyzer,
// message — so the output is deterministic.
func sortDiagnostics(prog *Program, diags []Diagnostic) {
	slices.SortFunc(diags, func(a, b Diagnostic) int {
		pa, pb := prog.Fset.Position(a.Pos), prog.Fset.Position(b.Pos)
		return cmp.Or(strings.Compare(pa.Filename, pb.Filename),
			cmp.Compare(pa.Line, pb.Line), cmp.Compare(pa.Column, pb.Column),
			strings.Compare(a.Analyzer, b.Analyzer), strings.Compare(a.Message, b.Message))
	})
}

// calledFunc resolves a call's function expression, or an identifier use,
// to the package-level function or method it names and that function's
// package name. It returns (nil, "") for anything else: builtins,
// conversions, func values. Analyzers match on the package name, not the
// path, so fixtures can model the real packages.
func calledFunc(info *types.Info, e ast.Expr) (*types.Func, string) {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil, ""
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil, ""
	}
	return fn, fn.Pkg().Name()
}

// isNamed reports whether t, or the type t points to, is the named type
// pkg.name, the package matched by name as in calledFunc.
func isNamed(t types.Type, pkg, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == name && n.Obj().Pkg() != nil && n.Obj().Pkg().Name() == pkg
}

// All lists every simlint analyzer, in reporting order.
var All = []*Analyzer{VirtClock, StatsReg, WireMut, HotAlloc}
