package analysis

import (
	"strings"
	"testing"
)

// TestDirectives covers the suppression surface end to end over the
// driver fixture: trailing and preceding placement suppress, a directive
// without a reason or naming an unknown analyzer is itself a finding and
// suppresses nothing.
func TestDirectives(t *testing.T) {
	prog := loadFixture(t, "driver/a")
	diags := Run(prog, All)
	if len(diags) != 5 {
		t.Fatalf("got %d raw diagnostics, want 5 (4 time.Now + 1 time.Sleep):\n%s",
			len(diags), dumpDiags(prog, diags))
	}

	dirs, malformed := parseDirectives(prog, All)
	if len(dirs) != 2 {
		t.Fatalf("got %d well-formed directives, want 2: %+v", len(dirs), dirs)
	}
	for _, d := range dirs {
		if d.Reason == "" {
			t.Errorf("directive at %s:%d parsed with empty reason", d.File, d.Line)
		}
		if len(d.Analyzers) != 1 || d.Analyzers[0] != "virtclock" {
			t.Errorf("directive at %s:%d names %v, want [virtclock]", d.File, d.Line, d.Analyzers)
		}
	}
	if len(malformed) != 2 {
		t.Fatalf("got %d malformed-directive findings, want 2:\n%s",
			len(malformed), dumpDiags(prog, malformed))
	}
	var sawMissingReason, sawUnknown bool
	for _, d := range malformed {
		if d.Analyzer != directiveAnalyzer {
			t.Errorf("malformed directive reported under %q, want %q", d.Analyzer, directiveAnalyzer)
		}
		if strings.Contains(d.Message, "needs a reason") {
			sawMissingReason = true
		}
		if strings.Contains(d.Message, `unknown analyzer "virtclocks"`) {
			sawUnknown = true
		}
	}
	if !sawMissingReason {
		t.Error("missing-reason directive did not produce a finding")
	}
	if !sawUnknown {
		t.Error("unknown-analyzer directive did not produce a finding")
	}

	kept, suppressed := applySuppressions(prog, diags, dirs)
	if len(suppressed) != 2 {
		t.Fatalf("got %d suppressed, want 2 (trailing + preceding)", len(suppressed))
	}
	for _, s := range suppressed {
		if s.Reason == "" {
			t.Errorf("suppressed diagnostic lost its reason: %+v", s.Diagnostic)
		}
	}
	// The reasonless and typoed directives must not have silenced their
	// lines: 3 virtclock findings survive.
	if len(kept) != 3 {
		t.Fatalf("got %d kept, want 3:\n%s", len(kept), dumpDiags(prog, kept))
	}
}

// TestExcludedByBuildTags pins the loader's tolerance rule: only the
// constraints-excluded shape is skipped, real listing errors still fail.
func TestExcludedByBuildTags(t *testing.T) {
	excluded := &listedPkg{
		ImportPath: "repro/internal/gated",
		Error:      &struct{ Err string }{Err: "build constraints exclude all Go files in /x/gated"},
	}
	if !excludedByBuildTags(excluded) {
		t.Error("constraints-excluded package not skipped")
	}
	broken := &listedPkg{
		ImportPath: "repro/internal/broken",
		GoFiles:    []string{"broken.go"},
		Error:      &struct{ Err string }{Err: "found packages a and b"},
	}
	if excludedByBuildTags(broken) {
		t.Error("genuinely broken package wrongly skipped")
	}
	partial := &listedPkg{
		ImportPath: "repro/internal/partial",
		GoFiles:    []string{"ok.go"},
		Error:      &struct{ Err string }{Err: "build constraints exclude all Go files in /x/partial"},
	}
	if excludedByBuildTags(partial) {
		t.Error("package with buildable files wrongly skipped")
	}
}

func dumpDiags(prog *Program, diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(prog.Fset.Position(d.Pos).String())
		b.WriteString(": ")
		b.WriteString(d.Message)
		b.WriteString(" [")
		b.WriteString(d.Analyzer)
		b.WriteString("]\n")
	}
	return b.String()
}
