package analysis

import "testing"

func TestVirtClock(t *testing.T) {
	RunTest(t, "testdata", VirtClock, "virtclock/a", "virtclock/cmdmain")
}

func TestNilHook(t *testing.T) {
	RunTest(t, "testdata", NilHook, "nilhook/telemetry")
}

func TestStatsReg(t *testing.T) {
	RunTest(t, "testdata", StatsReg, "statsreg/a")
}

func TestWireMut(t *testing.T) {
	RunTest(t, "testdata", WireMut, "wiremut/a", "wiremut/wire")
}

func TestSeriesName(t *testing.T) {
	RunTest(t, "testdata", SeriesName, "seriesname/a")
}

func TestFramePool(t *testing.T) {
	RunTest(t, "testdata", FramePool, "framepool/nic", "framepool/app", "framepool/wire")
}

func TestHotAlloc(t *testing.T) {
	RunTest(t, "testdata", HotAlloc, "hotalloc/a")
}

// TestRepoClean is the self-application gate: the analyzers over the
// whole module, run through the same suppression pipeline as `make lint`,
// must report nothing unsuppressed — so a regression against any
// DESIGN.md invariant fails the test suite, not just `make lint`. Every
// suppression must carry a reason (malformed directives fold back in as
// findings).
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	prog, err := Load("repro/...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags := Run(prog, All)
	dirs, malformed := ParseDirectives(prog, All)
	kept, _ := ApplySuppressions(prog, diags, dirs)
	kept = append(kept, malformed...)
	for _, d := range kept {
		t.Errorf("%s: %s [%s]", prog.Fset.Position(d.Pos), d.Message, d.Analyzer)
	}
}
