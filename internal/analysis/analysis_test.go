package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestVirtClock(t *testing.T) {
	runFixture(t, VirtClock, "virtclock/a", "virtclock/cmdmain")
}

func TestStatsReg(t *testing.T) {
	runFixture(t, StatsReg, "statsreg/a")
}

func TestWireMut(t *testing.T) {
	runFixture(t, WireMut, "wiremut/a", "wiremut/wire")
}

func TestHotAlloc(t *testing.T) {
	runFixture(t, HotAlloc, "hotalloc/a")
}

// TestFramePool covers the frame-pool rules hotalloc applies to
// //simlint:hotpath functions.
func TestFramePool(t *testing.T) {
	runFixture(t, HotAlloc, "hotalloc/framepool", "hotalloc/wire")
}

// TestRepoClean is the self-application gate: the analyzers over the
// whole module, run through the same suppression pipeline as `make lint`,
// must report nothing unsuppressed — so a regression against any
// DESIGN.md invariant fails the test suite, not just `make lint`. The
// suppressed set is pinned too: exactly the three amortized-append
// hotalloc annotations in internal/nic/nic.go, so a new //lint:ignore
// anywhere is a deliberate edit of this test.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	prog, err := Load("repro/...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	kept, suppressed := Lint(prog, All)
	for _, d := range kept {
		t.Errorf("%s: %s [%s]", prog.Fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	for _, s := range suppressed {
		if pos := prog.Fset.Position(s.Pos); s.Analyzer != "hotalloc" || !strings.HasSuffix(filepath.ToSlash(pos.Filename), "internal/nic/nic.go") {
			t.Errorf("%s: unexpected suppression [%s]: %s", pos, s.Analyzer, s.Reason)
		}
	}
	if len(suppressed) != 3 {
		t.Errorf("got %d suppressed findings, want 3 (the hotalloc appends in internal/nic/nic.go)", len(suppressed))
	}
}

// TestEveryPackageHasAnEntryPoint keeps dead packages from coming back:
// every package of the module must be a dependency of a command, an
// example or the benchmark, i.e. something a run can reach. A package
// only its own tests import belongs in the allowlist, with its reason, or
// out of the tree.
func TestEveryPackageHasAnEntryPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("lists and compiles the whole module")
	}
	allow := map[string]string{
		"repro": "the module's package doc; holds no code",
	}
	all, err := goList("repro/...")
	if err != nil {
		t.Fatal(err)
	}
	mains, err := goList("repro/cmd/...", "repro/examples/...", "repro/benchmark")
	if err != nil {
		t.Fatal(err)
	}
	reached := make(map[string]bool)
	for _, p := range mains {
		reached[p.ImportPath] = true
	}
	for _, p := range all {
		if p.DepOnly || p.Standard {
			continue
		}
		if _, ok := allow[p.ImportPath]; ok {
			if reached[p.ImportPath] {
				t.Errorf("%s is reached now; drop it from the allowlist", p.ImportPath)
			}
			continue
		}
		if !reached[p.ImportPath] {
			t.Errorf("%s: no command, example or benchmark imports it", p.ImportPath)
		}
	}
}
