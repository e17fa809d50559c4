// Package sampler turns the registry's point-in-time counter snapshots
// into bounded time series: at every virtual-clock tick it snapshots all
// registered counters, derives per-series deltas and rates, and appends
// them to fixed-capacity rings. Exporters (export.go) write the series as
// CSV, JSON, or Prometheus-style text.
//
// The sampler never owns a clock: the simulator drives it through
// netsim's SetPeriodic boundary hooks (experiments wire this up), so
// samples land on exact virtual-time boundaries and a fixed-seed run
// produces byte-identical series. Experiments run several worlds
// sequentially, each restarting virtual time at zero; OpenWorld marks the
// boundary so rates never straddle two clocks.
//
// The per-tick path rides the registry's cached snapshot layout
// (SnapshotInto) and per-series lookups through a prebuilt map, so
// steady-state sampling does not allocate beyond ring growth.
package sampler

import (
	"time"

	"repro/internal/telemetry"
)

// maxSamples bounds each series' ring; once full, the oldest points are
// dropped (and counted).
const maxSamples = 4096

// Config sets the sampler parameters.
type Config struct {
	// Interval is the virtual-clock snapshot cadence. It is recorded in
	// exports; the simulator owns the actual firing.
	Interval time.Duration
}

// Point is one sample of one counter.
type Point struct {
	T     time.Duration // virtual time of the snapshot (per-world clock)
	Epoch int           // world index (OpenWorld call count - 1)
	Value uint64        // cumulative counter value
	Delta uint64        // increase since the previous sample (0 at baselines)
	Rate  float64       // Delta per second of virtual time
}

// Series is one counter's bounded time series, a ring of Points.
type Series struct {
	Name string

	ring    []Point
	head    int // index of the oldest point once the ring is full
	n       int
	dropped uint64 // points evicted by the bound
	resets  uint64 // samples where the counter went backwards

	lastV   uint64
	lastT   time.Duration
	hasLast bool
}

// Len returns the number of retained points.
func (s *Series) Len() int { return s.n }

// Dropped returns how many points the bound evicted.
func (s *Series) Dropped() uint64 { return s.dropped }

// Resets returns how many samples saw the counter decrease (a source
// re-registered or zeroed); their Delta restarts from the new value.
func (s *Series) Resets() uint64 { return s.resets }

// At returns the i-th retained point in chronological order.
func (s *Series) At(i int) Point {
	return s.ring[(s.head+i)%len(s.ring)]
}

func (s *Series) push(p Point) {
	if len(s.ring) < maxSamples {
		s.ring = append(s.ring, p)
		s.n++
		return
	}
	s.ring[s.head] = p
	s.head = (s.head + 1) % len(s.ring)
	s.dropped++
}

// Sampler derives time series from a registry.
type Sampler struct {
	reg    *telemetry.Registry
	cfg    Config
	series []*Series // sorted by name
	byName map[string]*Series
	worlds []string

	scratch telemetry.Snapshot
}

// New creates a sampler reading from reg.
func New(reg *telemetry.Registry, cfg Config) *Sampler {
	return &Sampler{reg: reg, cfg: cfg, byName: make(map[string]*Series)}
}

// Interval returns the configured snapshot cadence.
func (s *Sampler) Interval() time.Duration { return s.cfg.Interval }

// Worlds returns the labels passed to OpenWorld, indexed by epoch.
func (s *Sampler) Worlds() []string { return s.worlds }

// OpenWorld marks a new world (a fresh simulator clock restarting at
// zero): every series' delta baseline resets, so the first sample in the
// new world reports Delta 0 instead of a rate across two clocks.
func (s *Sampler) OpenWorld(label string) {
	if s == nil {
		return
	}
	s.worlds = append(s.worlds, label)
	for _, ser := range s.series {
		ser.hasLast = false
	}
}

// Sample snapshots every registered counter at virtual time now,
// appending one point per counter. Counters first seen at this tick (or
// first seen since OpenWorld) record a baseline point with Delta 0; a
// counter that went backwards counts a reset and restarts its delta from
// the new value.
func (s *Sampler) Sample(now time.Duration) {
	if s == nil {
		return
	}
	epoch := len(s.worlds) - 1
	if epoch < 0 {
		epoch = 0
	}
	s.reg.SnapshotInto(&s.scratch)
	for _, c := range s.scratch.Counters {
		ser := s.byName[c.Name]
		if ser == nil {
			ser = &Series{Name: c.Name}
			s.byName[c.Name] = ser
			s.series = append(s.series, ser)
		}
		var delta uint64
		var rate float64
		if ser.hasLast && now > ser.lastT {
			if c.Value >= ser.lastV {
				delta = c.Value - ser.lastV
			} else {
				delta = c.Value
				ser.resets++
			}
			// delta*1e9/dtNs, ordered so round deltas over round gaps
			// stay exact in float64 (2e6, not 1.9999…e6).
			rate = float64(delta) * 1e9 / float64(now-ser.lastT)
		}
		ser.push(Point{T: now, Epoch: epoch, Value: c.Value, Delta: delta, Rate: rate})
		ser.lastV, ser.lastT, ser.hasLast = c.Value, now, true
	}
}

// Series returns the sampled series sorted by name. The slice is the
// sampler's own; treat as read-only.
func (s *Sampler) Series() []*Series {
	if s == nil {
		return nil
	}
	// Series are created in snapshot (sorted) order within a tick, but a
	// source registered later can introduce a name that sorts earlier, so
	// keep the exported order canonical with an insertion pass.
	for i := 1; i < len(s.series); i++ {
		for j := i; j > 0 && s.series[j-1].Name > s.series[j].Name; j-- {
			s.series[j-1], s.series[j] = s.series[j], s.series[j-1]
		}
	}
	return s.series
}
