package experiments

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/sampler"
)

// tel is the run's telemetry system; nil means disabled (the default).
// Every world built while it is set wires its links, stacks, NICs, and
// offload engines in. Worlds run sequentially and each restarts virtual
// time at zero, so each world becomes its own process on the timeline.
var tel *telemetry.System

// smp is the run's time-series sampler; nil means disabled. Each world
// built while it is set registers a periodic virtual-clock hook that
// snapshots every counter on the sampler's cadence.
var smp *sampler.Sampler

// UseTelemetry installs (or, with nil, removes) the telemetry system that
// subsequently built worlds attach to. cmd/experiments calls it when
// -trace or -metrics-out is given.
func UseTelemetry(s *telemetry.System) { tel = s }

// Telemetry returns the installed system (nil when disabled).
func Telemetry() *telemetry.System { return tel }

// UseSampler installs (or, with nil, removes) the time-series sampler
// that subsequently built worlds drive. Requires UseTelemetry as well —
// the sampler reads the same registry. cmd/experiments calls it when
// -sample-every is given.
func UseSampler(s *sampler.Sampler) { smp = s }

// Sampler returns the installed sampler (nil when disabled).
func Sampler() *sampler.Sampler { return smp }

// attachSampler opens a sampler world and arms the snapshot cadence on
// the world's simulator. The hook fires on exact virtual-clock
// boundaries between events (netsim.SetPeriodic), so it never keeps the
// world from quiescing and a fixed-seed run samples identically.
func attachSampler(sim *netsim.Simulator, label string) {
	if smp == nil {
		return
	}
	smp.OpenWorld(label)
	sim.SetPeriodic(smp.Interval(), smp.Sample)
}

// attachTelemetry wires one machine's stack and NIC under prefix.
func (m *Machine) attachTelemetry(tel *telemetry.System, prefix string) {
	m.Stack.SetTracer(tel.Trace, prefix+".tcp")
	tel.Reg.RegisterCounters(prefix+".tcp", &m.Stack.Stats)
	m.NIC.SetTelemetry(tel.Trace, tel.Reg, prefix+".nic")
}

// attachTelemetry captures the installed telemetry system, if any, opens a
// new trace world of the given kind and wires the world's links, frame
// pool and machines into it under the world's prefix.
func (w *world) attachTelemetry(kind string) {
	w.tel = tel
	if tel == nil {
		return
	}
	pid := tel.Trace.AttachClock(w.Sim.Now, kind)
	p := fmt.Sprintf("w%d", pid)
	w.telPrefix = p
	for _, l := range w.links {
		l.EnableTrace(tel.Trace, p+"."+l.name)
		tel.Reg.RegisterCounters(p+"."+l.name+".ab", l.StatsPtrAtoB())
		tel.Reg.RegisterCounters(p+"."+l.name+".ba", l.StatsPtrBtoA())
	}
	tel.Reg.RegisterCounters(p+".pool", w.Pool.StatsPtr())
	for _, m := range w.machines {
		m.attachTelemetry(tel, p+"."+m.name)
	}
	attachSampler(w.Sim, p)
}

// FlushTelemetry closes out per-engine accounting on every machine. Call
// after traffic, before exporting.
func (w *world) FlushTelemetry() {
	if w.tel == nil {
		return
	}
	for _, m := range w.machines {
		m.NIC.FlushTelemetry()
	}
}

// histogram returns the run's histogram by name, or nil when the world was
// built with telemetry off (Record on a nil histogram is a no-op).
func (w *world) histogram(name string) *telemetry.Histogram {
	if w.tel == nil {
		return nil
	}
	return w.tel.Reg.Histogram(name)
}
