package analysis

import "testing"

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
// whole module must report nothing, as `make lint` must — so a regression
// against any DESIGN.md invariant fails the test suite, not just `make
// lint`.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	prog, err := Load("repro/...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, d := range Run(prog, All) {
		t.Errorf("%s: %s [%s]", prog.Fset.Position(d.Pos), d.Message, d.Analyzer)
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
