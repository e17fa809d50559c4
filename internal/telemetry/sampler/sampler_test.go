package sampler

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden series fixtures")

type stats struct {
	Frames uint64
	Drops  uint64
}

func TestDeltaAndRateAcrossGaps(t *testing.T) {
	reg := telemetry.NewRegistry()
	st := &stats{}
	reg.RegisterCounters("lnk", st)
	s := New(reg, Config{Interval: 10 * time.Microsecond})
	s.OpenWorld("w1")

	st.Frames = 5
	s.Sample(10 * time.Microsecond) // baseline: no previous point
	st.Frames = 25
	s.Sample(20 * time.Microsecond) // +20 in 10µs = 2e6/s
	st.Frames = 25
	s.Sample(50 * time.Microsecond) // gap of 3 ticks, no traffic
	st.Frames = 31
	s.Sample(60 * time.Microsecond) // +6 in 10µs after the gap

	ser := s.Series()[1] // lnk.Drops sorts before lnk.Frames
	if ser.Name != "lnk.Frames" {
		t.Fatalf("series[1] = %s", ser.Name)
	}
	if ser.Len() != 4 {
		t.Fatalf("len = %d", ser.Len())
	}
	p0, p1, p2, p3 := ser.At(0), ser.At(1), ser.At(2), ser.At(3)
	if p0.Delta != 0 || p0.Rate != 0 || p0.Value != 5 {
		t.Errorf("baseline point: %+v", p0)
	}
	if p1.Delta != 20 || p1.Rate != 2e6 {
		t.Errorf("steady point: %+v", p1)
	}
	if p2.Delta != 0 || p2.Rate != 0 {
		t.Errorf("idle gap point: %+v", p2)
	}
	// The rate denominator is the real gap since the last sample (10µs
	// here), not the nominal interval.
	if p3.Delta != 6 || p3.Rate != 6e5 {
		t.Errorf("post-gap point: %+v", p3)
	}
}

func TestCounterReset(t *testing.T) {
	reg := telemetry.NewRegistry()
	st := &stats{}
	reg.RegisterCounters("s", st)
	s := New(reg, Config{Interval: time.Microsecond})

	st.Frames = 100
	s.Sample(1 * time.Microsecond)
	st.Frames = 3 // counter went backwards: source zeroed and recounted
	s.Sample(2 * time.Microsecond)

	ser := s.Series()[1]
	if ser.Resets() != 1 {
		t.Fatalf("resets = %d, want 1", ser.Resets())
	}
	if p := ser.At(1); p.Delta != 3 || p.Rate != 3e6 {
		t.Errorf("delta should restart from the new value: %+v", p)
	}
}

func TestEmptyRegistry(t *testing.T) {
	s := New(telemetry.NewRegistry(), Config{Interval: time.Microsecond})
	s.Sample(time.Microsecond)
	s.Sample(2 * time.Microsecond)
	if len(s.Series()) != 0 {
		t.Fatalf("series = %d, want 0", len(s.Series()))
	}
	var csv, prom strings.Builder
	if err := s.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if csv.String() != "series,epoch,t_ns,value,delta,rate\n" {
		t.Errorf("empty CSV:\n%s", csv.String())
	}
	if err := s.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if prom.String() != "" {
		t.Errorf("empty prom:\n%s", prom.String())
	}
}

func TestWorldBoundaryResetsBaseline(t *testing.T) {
	reg := telemetry.NewRegistry()
	st := &stats{}
	reg.RegisterCounters("s", st)
	s := New(reg, Config{Interval: time.Microsecond})
	s.OpenWorld("w1")
	st.Frames = 50
	s.Sample(90 * time.Microsecond) // world 1 ends at high virtual time

	s.OpenWorld("w2") // clock restarts at zero
	st.Frames = 60
	s.Sample(1 * time.Microsecond)

	ser := s.Series()[1]
	p := ser.At(1)
	if p.Epoch != 1 {
		t.Errorf("epoch = %d, want 1", p.Epoch)
	}
	// Without the boundary this would be a negative-dt sample; with it,
	// the first post-boundary point is a fresh baseline.
	if p.Delta != 0 || p.Rate != 0 {
		t.Errorf("cross-world point not re-baselined: %+v", p)
	}
}

func TestCounterAppearingMidRun(t *testing.T) {
	reg := telemetry.NewRegistry()
	st := &stats{}
	reg.RegisterCounters("a", st)
	s := New(reg, Config{Interval: time.Microsecond})
	s.Sample(1 * time.Microsecond)

	late := &stats{Frames: 7}
	reg.RegisterCounters("late", late)
	s.Sample(2 * time.Microsecond)

	var ser *Series
	for _, c := range s.Series() {
		if c.Name == "late.Frames" {
			ser = c
		}
	}
	if ser == nil {
		t.Fatal("late counter never sampled")
	}
	if ser.Len() != 1 {
		t.Fatalf("late series has %d points", ser.Len())
	}
	if p := ser.At(0); p.Delta != 0 || p.Value != 7 {
		t.Errorf("late baseline: %+v", p)
	}
}

func TestBoundedRingDropsOldest(t *testing.T) {
	reg := telemetry.NewRegistry()
	st := &stats{}
	reg.RegisterCounters("s", st)
	s := New(reg, Config{Interval: time.Microsecond})
	for i := 1; i <= maxSamples+6; i++ {
		st.Frames = uint64(i)
		s.Sample(time.Duration(i) * time.Microsecond)
	}
	ser := s.Series()[1]
	if ser.Len() != maxSamples {
		t.Fatalf("len = %d, want %d", ser.Len(), maxSamples)
	}
	if ser.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6", ser.Dropped())
	}
	for i := 0; i < maxSamples; i++ {
		if got := ser.At(i).Value; got != uint64(7+i) {
			t.Fatalf("point %d value = %d, want %d (oldest evicted, order kept)", i, got, 7+i)
		}
	}
}

func TestSampleNoAllocSteadyState(t *testing.T) {
	reg := telemetry.NewRegistry()
	st := &stats{}
	reg.RegisterCounters("s", st)
	s := New(reg, Config{Interval: time.Microsecond})
	now := time.Microsecond
	for i := 0; i < 2*maxSamples; i++ { // fill the rings so pushes stop growing
		s.Sample(now)
		now += time.Microsecond
	}
	allocs := testing.AllocsPerRun(1000, func() {
		st.Frames++
		s.Sample(now)
		now += time.Microsecond
	})
	if allocs != 0 {
		t.Errorf("Sample allocates %v per tick at steady state, want 0", allocs)
	}
}

// goldenSampler drives a small deterministic two-world scenario through
// every derivation path (baseline, steady rate, idle gap, reset, world
// boundary).
func goldenSampler() *Sampler {
	reg := telemetry.NewRegistry()
	st := &stats{}
	reg.RegisterCounters("nic", st)
	s := New(reg, Config{Interval: 10 * time.Microsecond})
	s.OpenWorld("w1")
	st.Frames, st.Drops = 3, 0
	s.Sample(10 * time.Microsecond)
	st.Frames, st.Drops = 13, 1
	s.Sample(20 * time.Microsecond)
	st.Frames = 13
	s.Sample(40 * time.Microsecond)
	s.OpenWorld("w2")
	st.Frames = 2 // source restarted with the new world
	s.Sample(10 * time.Microsecond)
	st.Frames = 12
	s.Sample(20 * time.Microsecond)
	return s
}

func TestGoldenSeries(t *testing.T) {
	s := goldenSampler()
	for _, g := range []struct {
		file  string
		write func(*Sampler) string
	}{
		{"series_golden.csv", func(s *Sampler) string {
			var b strings.Builder
			s.WriteCSV(&b)
			return b.String()
		}},
		{"series_golden.json", func(s *Sampler) string {
			var b strings.Builder
			s.WriteJSON(&b)
			return b.String()
		}},
		{"series_golden.prom", func(s *Sampler) string {
			var b strings.Builder
			s.WriteProm(&b)
			return b.String()
		}},
	} {
		got := g.write(s)
		path := filepath.Join("testdata", g.file)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run `go test ./internal/telemetry/sampler -update` to create)", err)
		}
		if got != string(want) {
			t.Errorf("%s drifted from golden fixture.\ngot:\n%s\nwant:\n%s", g.file, got, want)
		}
	}
}
