package analysis

import (
	"strconv"
	"strings"
)

// The driver half of simlint: `//lint:ignore` suppression directives,
// applied between Run and reporting. A directive has the form
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// and suppresses matching diagnostics on its own line (trailing comment)
// or on the line directly below it (preceding comment). The reason is
// mandatory — a suppression is an argument, not a mute button — and the
// analyzer names must exist, so a typo cannot silently disable a check.
// Malformed directives are returned as diagnostics under the "directive"
// analyzer name and fail the run like any other finding (they are not
// themselves suppressible). Suppressed diagnostics stay counted in the
// driver's summary, so `make lint` output always shows how much of the
// repo lives on an annotation.

// directiveAnalyzer is the analyzer name malformed-directive diagnostics
// report under.
const directiveAnalyzer = "directive"

// directive is one parsed //lint:ignore comment.
type directive struct {
	File      string
	Line      int
	Analyzers []string
	Reason    string
}

// Suppressed is a diagnostic a directive silenced, with its reason.
type Suppressed struct {
	Diagnostic
	Reason string
}

// Lint runs the analyzers over prog and applies its //lint:ignore
// directives. kept is what fails the run, malformed directives included,
// sorted by position; suppressed is what a directive silenced.
func Lint(prog *Program, analyzers []*Analyzer) (kept []Diagnostic, suppressed []Suppressed) {
	dirs, malformed := parseDirectives(prog, analyzers)
	kept, suppressed = applySuppressions(prog, Run(prog, analyzers), dirs)
	kept = append(kept, malformed...)
	sortDiagnostics(prog, kept)
	return kept, suppressed
}

// parseDirectives scans every comment of the program for //lint:ignore
// directives. It returns the well-formed directives plus diagnostics for
// the malformed ones: a missing reason or an unknown analyzer name is a
// finding, because either would let violations vanish unargued.
func parseDirectives(prog *Program, known []*Analyzer) ([]directive, []Diagnostic) {
	names := make(map[string]bool, len(known))
	for _, a := range known {
		names[a.Name] = true
	}
	var dirs []directive
	var bad []Diagnostic
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//") // /* ... */ comments are not directives
					if !ok {
						continue
					}
					if text, ok = strings.CutPrefix(strings.TrimSpace(text), "lint:ignore"); !ok {
						continue
					}
					analyzers, reason, problems := parseDirective(text, names)
					for _, msg := range problems {
						bad = append(bad, Diagnostic{Pos: c.Pos(), Analyzer: directiveAnalyzer, Message: msg})
					}
					if len(problems) == 0 {
						pos := prog.Fset.Position(c.Pos())
						dirs = append(dirs, directive{File: pos.Filename, Line: pos.Line, Analyzers: analyzers, Reason: reason})
					}
				}
			}
		}
	}
	return dirs, bad
}

// parseDirective splits the text after "lint:ignore" into its analyzer
// names and reason, or returns what is wrong with it.
func parseDirective(text string, names map[string]bool) (analyzers []string, reason string, problems []string) {
	fields := strings.Fields(text)
	if len(fields) == 0 {
		return nil, "", []string{"//lint:ignore needs an analyzer and a reason: //lint:ignore <analyzer> <why this violation is sanctioned>"}
	}
	reason = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(text), fields[0]))
	if reason == "" {
		return nil, "", []string{"//lint:ignore needs a reason: //lint:ignore <analyzer> <why this violation is sanctioned>"}
	}
	analyzers = strings.Split(fields[0], ",")
	for _, an := range analyzers {
		if !names[an] {
			problems = append(problems, "//lint:ignore names unknown analyzer "+strconv.Quote(an)+": a typo here would silently suppress nothing")
		}
	}
	return analyzers, reason, problems
}

// applySuppressions partitions diags into the kept and the suppressed: a
// diagnostic is suppressed by a directive for its analyzer on the same
// line or the line directly above.
func applySuppressions(prog *Program, diags []Diagnostic, dirs []directive) (kept []Diagnostic, suppressed []Suppressed) {
	type key struct {
		file     string
		line     int
		analyzer string
	}
	reasons := make(map[key]string)
	for _, d := range dirs {
		for _, an := range d.Analyzers {
			reasons[key{d.File, d.Line, an}] = d.Reason
		}
	}
	for _, d := range diags {
		pos := prog.Fset.Position(d.Pos)
		reason, ok := reasons[key{pos.Filename, pos.Line, d.Analyzer}]
		if !ok {
			reason, ok = reasons[key{pos.Filename, pos.Line - 1, d.Analyzer}]
		}
		if ok {
			suppressed = append(suppressed, Suppressed{Diagnostic: d, Reason: reason})
		} else {
			kept = append(kept, d)
		}
	}
	return kept, suppressed
}
