package telemetry

import (
	"strings"
	"testing"
	"time"
)

type innerStats struct {
	Deep uint64
}

type fakeStats struct {
	Frames uint64
	Drops  uint64
	Nested innerStats
	skip   uint64 // unexported: must be ignored
}

func TestRegistrySnapshotFlattensAndSums(t *testing.T) {
	r := NewRegistry()
	a := &fakeStats{Frames: 3, Drops: 1, Nested: innerStats{Deep: 7}}
	b := &fakeStats{Frames: 10}
	r.RegisterCounters("lnk", a)
	r.RegisterCounters("lnk", b) // same prefix: values sum
	r.RegisterCounters("other", &fakeStats{Drops: 2})

	a.Frames++ // registry reads live values at snapshot time

	s := r.Snapshot()
	if got := s.Get("lnk.Frames"); got != 14 {
		t.Errorf("lnk.Frames = %d, want 14", got)
	}
	if got := s.Get("lnk.Nested.Deep"); got != 7 {
		t.Errorf("lnk.Nested.Deep = %d, want 7", got)
	}
	if got := s.Get("other.Drops"); got != 2 {
		t.Errorf("other.Drops = %d, want 2", got)
	}
	if got := s.Get("lnk.skip"); got != 0 {
		t.Errorf("unexported field leaked into snapshot: %d", got)
	}
	// Sorted by name.
	for i := 1; i < len(s.Counters); i++ {
		if s.Counters[i-1].Name > s.Counters[i].Name {
			t.Fatalf("counters not sorted: %q > %q", s.Counters[i-1].Name, s.Counters[i].Name)
		}
	}
}

// EmbeddedCounters is exported because only an exported embedded type
// is an exported field.
type EmbeddedCounters struct {
	Promoted uint64
}

type withEmbedded struct {
	Own uint64
	EmbeddedCounters
}

// TestRegistryPromotesEmbedded: an embedded struct's counters are named
// as Go promotes them — prefix.Field, not prefix.Type.Field — and read
// live like any other field.
func TestRegistryPromotesEmbedded(t *testing.T) {
	r := NewRegistry()
	st := &withEmbedded{Own: 1}
	r.RegisterCounters("q0", st)
	st.Promoted = 5
	s := r.Snapshot()
	if got := s.Get("q0.Promoted"); got != 5 {
		t.Errorf("q0.Promoted = %d, want 5", got)
	}
	if len(s.Counters) != 2 {
		t.Errorf("counters = %v, want q0.Own and q0.Promoted", s.Counters)
	}
}

func TestRegistryRejectsNonPointer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("RegisterCounters accepted a non-pointer")
		}
	}()
	NewRegistry().RegisterCounters("x", fakeStats{})
}

func TestRegistryHistogramSharing(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("lat")
	h2 := r.Histogram("lat")
	if h1 != h2 {
		t.Error("same name should return the same histogram")
	}
	h1.Record(5)
	s := r.Snapshot()
	if len(s.Hists) != 1 || s.Hists[0].Count != 1 {
		t.Errorf("snapshot hists = %+v", s.Hists)
	}
}

func TestSnapshotFprint(t *testing.T) {
	r := NewRegistry()
	r.RegisterCounters("s", &fakeStats{Frames: 2})
	r.Histogram("lat_ns").Record(100)
	var sb strings.Builder
	r.Snapshot().Fprint(&sb)
	out := sb.String()
	if !strings.Contains(out, "s.Frames 2\n") {
		t.Errorf("missing counter line in:\n%s", out)
	}
	if !strings.Contains(out, "lat_ns count=1") {
		t.Errorf("missing histogram line in:\n%s", out)
	}
}

type mergeStats struct {
	U      uint64
	D      time.Duration
	Nested innerStats
}

func TestSumSub(t *testing.T) {
	total := mergeStats{U: 10, D: time.Second, Nested: innerStats{Deep: 5}}
	base := mergeStats{U: 4, D: time.Millisecond, Nested: innerStats{Deep: 2}}

	Sub(&total, base)
	if total.U != 6 || total.D != time.Second-time.Millisecond || total.Nested.Deep != 3 {
		t.Errorf("Sub: %+v", total)
	}
	Sum(&total, base)
	if total.U != 10 || total.D != time.Second || total.Nested.Deep != 5 {
		t.Errorf("Sum roundtrip: %+v", total)
	}
}

func TestSnapshotIntoReusesBuffers(t *testing.T) {
	r := NewRegistry()
	a := &fakeStats{Frames: 1}
	r.RegisterCounters("s", a)
	r.Histogram("lat").Record(3)

	var snap Snapshot
	r.SnapshotInto(&snap)
	if got := snap.Get("s.Frames"); got != 1 {
		t.Fatalf("s.Frames = %d, want 1", got)
	}
	a.Frames = 9
	r.SnapshotInto(&snap)
	if got := snap.Get("s.Frames"); got != 9 {
		t.Errorf("reused snapshot did not refresh: %d", got)
	}
	if len(snap.Hists) != 1 || snap.Hists[0].Count != 1 {
		t.Errorf("hists = %+v", snap.Hists)
	}

	// Registering after a snapshot must invalidate the cached layout.
	r.RegisterCounters("late", &fakeStats{Drops: 4})
	r.SnapshotInto(&snap)
	if got := snap.Get("late.Drops"); got != 4 {
		t.Errorf("late registration missing from snapshot: %d", got)
	}
}

func TestSnapshotIntoNoAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting unreliable under -race")
	}
	r := NewRegistry()
	r.RegisterCounters("a", &fakeStats{Frames: 1, Nested: innerStats{Deep: 2}})
	r.RegisterCounters("b", &fakeStats{Drops: 3})
	r.Histogram("lat").Record(10)

	var snap Snapshot
	r.SnapshotInto(&snap) // first call sizes the buffers
	allocs := testing.AllocsPerRun(1000, func() {
		r.SnapshotInto(&snap)
	})
	if allocs != 0 {
		t.Errorf("SnapshotInto allocates %v per call at steady state, want 0", allocs)
	}
}

func TestSumIntoMatchesSum(t *testing.T) {
	src := mergeStats{U: 4, D: time.Millisecond, Nested: innerStats{Deep: 2}}
	a := mergeStats{U: 1}
	b := mergeStats{U: 1}
	Sum(&a, src)
	SumInto(&b, &src)
	if a != b {
		t.Errorf("SumInto diverges from Sum: %+v vs %+v", b, a)
	}
}

func TestSumIntoNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting unreliable under -race")
	}
	dst := &mergeStats{}
	src := &mergeStats{U: 2, Nested: innerStats{Deep: 1}}
	allocs := testing.AllocsPerRun(1000, func() {
		SumInto(dst, src)
	})
	if allocs != 0 {
		t.Errorf("SumInto allocates %v per call, want 0", allocs)
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.RegisterCounters("x", &fakeStats{})
	if r.Histogram("h") != nil {
		t.Error("nil registry should hand out nil histograms")
	}
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Error("nil registry snapshot should be empty")
	}
}
