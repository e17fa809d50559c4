package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestVirtClock(t *testing.T) {
	runFixture(t, VirtClock, "virtclock/a", "virtclock/cmdmain")
}

func TestNilHook(t *testing.T) {
	runFixture(t, NilHook, "nilhook/telemetry")
}

func TestStatsReg(t *testing.T) {
	runFixture(t, StatsReg, "statsreg/a")
}

func TestWireMut(t *testing.T) {
	runFixture(t, WireMut, "wiremut/a", "wiremut/wire")
}

func TestSeriesName(t *testing.T) {
	runFixture(t, SeriesName, "seriesname/a")
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
