package nic

import (
	"testing"
	"time"

	"repro/internal/meta"
	"repro/internal/offload"
	"repro/internal/tcpip"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// TestFallbackBetweenPollsCountsAtOnce: a transition an attached engine
// makes between packets (here software's integrity check tripping the
// fallback) is in the device stats at once, not at the next poll, and
// detaching the engine does not count it again.
func TestFallbackBetweenPollsCountsAtOnce(t *testing.T) {
	sim, a, b, _, nb := world(t, Config{})
	ops := &passOps{}
	var flow wire.FlowID
	var eng *offload.RxEngine
	b.Listen(80, func(s *tcpip.Socket) {
		flow = s.Flow().Reverse()
		eng = offload.NewRxEngine(ops, s.ReadSeq(), nil)
		nb.AttachRx(flow, eng)
		s.OnReadable = func(s *tcpip.Socket) {
			for {
				if _, ok := s.ReadChunk(); !ok {
					break
				}
			}
		}
	})
	a.Connect(wire.Addr{IP: b.IP(), Port: 80}, func(s *tcpip.Socket) {
		s.Write(msg(make([]byte, 10)))
	})
	sim.RunUntil(100 * time.Millisecond)
	if eng == nil {
		t.Fatal("engine never attached")
	}

	eng.SetFallbackPolicy(offload.DefaultFallbackPolicy())
	eng.NoteAuthFailure()
	if got := nb.Stats().RxFallbacks; got != 1 {
		t.Errorf("RxFallbacks = %d right after the fallback, want 1", got)
	}
	nb.DetachRx(flow)
	if got := nb.Stats().RxFallbacks; got != 1 {
		t.Errorf("RxFallbacks = %d after detach, want 1", got)
	}
}

// TestReattachedEngineCountsOnce: an engine detached and attached again
// counts each of its transitions into the device once, so the device's
// receive counters equal the engine's own.
func TestReattachedEngineCountsOnce(t *testing.T) {
	sim, _, _, _, nb := world(t, Config{})
	f := flowTo(1)
	e := offload.NewRxEngine(&passOps{}, 1000, nil)
	nb.AttachRx(f, e)
	nb.DeliverFrame(frameFor(f, 1000, 8))
	nb.DeliverFrame(frameFor(f, 1100, 8)) // a gap: search, then track the header
	flush(sim)
	nb.DetachRx(f)
	nb.AttachRx(f, e)
	nb.DeliverFrame(frameFor(f, 1300, 8)) // another gap: search and track again
	flush(sim)

	if e.Stats.EnterSearching != 2 || e.Stats.EnterTracking != 2 {
		t.Fatalf("engine searched %d and tracked %d times, want 2 and 2",
			e.Stats.EnterSearching, e.Stats.EnterTracking)
	}
	want := offload.RxQueueStats{
		RxFallbacks:       e.Stats.Fallbacks,
		RxCorruptionDrops: e.Stats.CorruptionDrops,
		RxSearches:        e.Stats.EnterSearching,
		RxTracks:          e.Stats.EnterTracking,
		RxResumes:         e.Stats.Resumes,
	}
	if got := nb.Stats().RxQueueStats; got != want {
		t.Errorf("device counters %+v, engine's own %+v", got, want)
	}
}

// TestNICTraceEvents checks that an instrumented NIC emits DMA events and
// forwards its tracer/registry to attached engines.
func TestNICTraceEvents(t *testing.T) {
	sim, a, b, _, nb := world(t, Config{})
	var now = func() time.Duration { return sim.Now() }
	tr := telemetry.NewTracer(1 << 12)
	tr.AttachClock(now, "nic-test")
	reg := telemetry.NewRegistry()
	nb.SetTelemetry(tr, reg, "srv.nic")

	ops := &passOps{}
	var flags []meta.RxFlags
	b.Listen(80, func(s *tcpip.Socket) {
		nb.AttachRx(s.Flow().Reverse(), offload.NewRxEngine(ops, s.ReadSeq(), nil))
		s.OnReadable = func(s *tcpip.Socket) {
			for {
				c, ok := s.ReadChunk()
				if !ok {
					break
				}
				flags = append(flags, c.Flags)
			}
		}
	})
	a.Connect(wire.Addr{IP: b.IP(), Port: 80}, func(s *tcpip.Socket) {
		s.Write(msg(make([]byte, 100)))
	})
	sim.RunUntil(time.Second)

	seen := map[string]int{}
	for _, ev := range tr.Events() {
		seen[ev.Name]++
	}
	if seen["dma.rx"] == 0 || seen["dma.tx"] == 0 {
		t.Errorf("missing DMA events: %v", seen)
	}

	snap := reg.Snapshot()
	if snap.Get("srv.nic.q0.RxPackets") == 0 {
		t.Errorf("registered NIC counters missing from snapshot: %+v", snap.Counters)
	}
}
