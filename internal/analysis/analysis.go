// Package analysis is a self-contained, dependency-free re-implementation
// of the golang.org/x/tools/go/analysis surface this repository needs: a
// set of static analyzers ("simlint") that mechanically enforce the
// simulator's design invariants (DESIGN.md "Invariants as analyzers"), a
// package loader built on `go list -export` plus the standard library's
// gc export-data importer, and an analysistest-style fixture runner.
//
// The contracts these analyzers encode are the ones everything downstream
// leans on: the byte-identical golden Chrome trace and the seeded
// offload-vs-software equivalence soak assume virtual-clock purity and
// seeded randomness (virtclock); the zero-alloc disabled telemetry path
// assumes nil-safe hooks (nilhook); the metrics registry's reflective
// flattener assumes counter-shaped Stats structs that are actually
// registered (statsreg); the ECN path assumes serialized frames are
// only mutated through checksum-repairing helpers (wiremut); the
// sampler's exports and the golden metrics fixtures assume canonical
// dotted-lowercase series names (seriesname); and the hand-tuned batch
// loop assumes its per-packet paths stay allocation-free (hotalloc). A
// violation fails `make lint` (inside `make check`) at source level
// instead of flaking a soak after the fact.
//
// The package also carries the driver that cmd/simlint fronts: reasoned
// `//lint:ignore` suppression (driver.go), a committed baseline for
// landing new analyzers strict-on-new-code (baseline.go), and a JSON
// report for CI annotation (jsonout.go). Per-package passes run in
// parallel; diagnostics stay position-sorted and deduplicated.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"sync"
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
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Package is one loaded, parsed, and type-checked package.
type Package struct {
	PkgPath   string
	Fset      *token.FileSet
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

// Run executes the analyzers over the program and returns their
// diagnostics sorted by position then analyzer name, deduplicated and
// deterministic. Per-package passes run in parallel (one worker per
// core, each package through every per-package analyzer), so `make lint`
// does not slow down linearly as the suite grows; whole-program passes
// run serially afterwards. Identical diagnostics — the same position,
// analyzer, and message, as happens when overlapping patterns hand the
// same package to the loader twice — collapse to one.
func Run(prog *Program, analyzers []*Analyzer) []Diagnostic {
	perPkg := make([]*Analyzer, 0, len(analyzers))
	for _, a := range analyzers {
		if a.Run != nil {
			perPkg = append(perPkg, a)
		}
	}
	results := make([][]Diagnostic, len(prog.Packages))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for pi, pkg := range prog.Packages {
		wg.Add(1)
		//lint:ignore virtclock host tooling, not simulated-world code: the linter's own bounded worker pool, joined by wg.Wait before any result is read
		go func(pi int, pkg *Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var local []Diagnostic
			for _, a := range perPkg {
				pass := &Pass{
					Analyzer:  a,
					Fset:      prog.Fset,
					Files:     pkg.Files,
					Pkg:       pkg.Pkg,
					TypesInfo: pkg.TypesInfo,
				}
				pass.report = func(d Diagnostic) {
					d.Analyzer = pass.Analyzer.Name
					local = append(local, d)
				}
				if err := a.Run(pass); err != nil {
					local = append(local, Diagnostic{Pos: token.NoPos, Analyzer: a.Name,
						Message: fmt.Sprintf("internal error: %v", err)})
				}
			}
			results[pi] = local
		}(pi, pkg)
	}
	wg.Wait()
	var diags []Diagnostic
	for _, local := range results {
		diags = append(diags, local...)
	}
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		a := a
		collect := func(d Diagnostic) {
			d.Analyzer = a.Name
			diags = append(diags, d)
		}
		prog.report = collect
		if err := a.RunProgram(prog); err != nil {
			collect(Diagnostic{Pos: token.NoPos,
				Message: fmt.Sprintf("internal error: %v", err)})
		}
		prog.report = nil
	}
	SortDiagnostics(prog, diags)
	return dedupeDiagnostics(diags)
}

// SortDiagnostics orders diags by position, then analyzer, then message
// — the full key, so concurrent collection and driver-side merging (the
// directive diagnostics folded back in by cmd/simlint) stay
// deterministic.
func SortDiagnostics(prog *Program, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := prog.Fset.Position(diags[i].Pos), prog.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
}

// dedupeDiagnostics collapses adjacent identical diagnostics in a sorted
// slice: a package reached through multiple program roots must not
// double-report.
func dedupeDiagnostics(diags []Diagnostic) []Diagnostic {
	w := 0
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		diags[w] = d
		w++
	}
	return diags[:w]
}

// All lists every simlint analyzer, in reporting order.
var All = []*Analyzer{VirtClock, NilHook, StatsReg, WireMut, SeriesName, FramePool, HotAlloc}
