package offload

import (
	"testing"
	"time"

	"repro/internal/telemetry"
)

// driveHeaderLoss replays the Fig 8c scenario (lost header packet →
// search → track → confirm → resume) against an engine wired for it.
func driveHeaderLoss(t *testing.T, e *RxEngine, st *stream, h *confirmHarness) {
	t.Helper()
	for i, p := range st.packets(repeatSizes(100, 100)) {
		if i == 1 {
			continue // lose the packet with message 1's header
		}
		e.Process(p.seq, p.data, false)
		h.tick()
	}
}

func TestRxTransitionCounters(t *testing.T) {
	ops := &tpOps{t: t}
	st := buildStream(1000, repeatSizes(150, 12), 5)
	h := &confirmHarness{st: st}
	e := NewRxEngine(ops, 1000, resyncFunc(h.request))
	h.e = e

	driveHeaderLoss(t, e, st, h)

	if e.State() != "offloading" {
		t.Fatalf("engine did not resume: state %s", e.State())
	}
	if e.Stats.EnterSearching == 0 {
		t.Error("EnterSearching not counted")
	}
	if e.Stats.EnterTracking == 0 {
		t.Error("EnterTracking not counted")
	}
	if e.Stats.Resumes == 0 {
		t.Error("Resumes not counted")
	}
	if e.Stats.Fallbacks != 0 {
		t.Errorf("Fallbacks=%d on a recoverable run", e.Stats.Fallbacks)
	}
}

func TestRxFallbackStateReported(t *testing.T) {
	mk := map[string]func(ops RxOps) *RxEngine{
		"dense":  func(ops RxOps) *RxEngine { return NewRxEngine(ops, 1000, nil) },
		"sparse": func(ops RxOps) *RxEngine { return NewSparseRxEngine(ops, nil) },
	}
	for name, build := range mk {
		t.Run(name, func(t *testing.T) {
			ops := &tpOps{t: t}
			e := build(ops)
			e.SetFallbackPolicy(DefaultFallbackPolicy())
			e.NoteAuthFailure()
			if e.State() != "fallback" {
				t.Errorf("State()=%q, want fallback", e.State())
			}
			if !e.FellBack() {
				t.Error("FellBack() false after fallback")
			}
			if e.Stats.Fallbacks != 1 {
				t.Errorf("Fallbacks=%d, want 1", e.Stats.Fallbacks)
			}
			// Re-entering must not double count.
			e.NoteAuthFailure()
			if e.Stats.Fallbacks != 1 {
				t.Errorf("Fallbacks=%d after repeat, want 1", e.Stats.Fallbacks)
			}
		})
	}
}

func TestRxTelemetryTimeline(t *testing.T) {
	var now time.Duration
	tr := telemetry.NewTracer(1 << 12)
	tr.AttachClock(func() time.Duration { return now }, "test")
	reg := telemetry.NewRegistry()

	ops := &tpOps{t: t}
	st := buildStream(1000, repeatSizes(150, 12), 5)
	h := &confirmHarness{st: st}
	e := NewRxEngine(ops, 1000, resyncFunc(h.request))
	h.e = e
	e.EnableTelemetry(tr, reg, "flow0")

	for i, p := range st.packets(repeatSizes(100, 100)) {
		now += time.Microsecond
		if i == 1 {
			continue
		}
		e.Process(p.seq, p.data, false)
		h.tick()
	}
	e.FlushTelemetry()

	seen := map[string]int{}
	for _, ev := range tr.Events() {
		seen[ev.Name]++
		if ev.Tid != "flow0" {
			t.Fatalf("event %s on track %q, want flow0", ev.Name, ev.Tid)
		}
	}
	for _, want := range []string{"rx.searching", "rx.tracking", "rx.offloading", "resync.req", "resync.confirm"} {
		if seen[want] == 0 {
			t.Errorf("no %s event on the timeline (saw %v)", want, seen)
		}
	}

	snap := reg.Snapshot()
	hists := map[string]telemetry.HistSnap{}
	for _, hs := range snap.Hists {
		hists[hs.Name] = hs
	}
	for _, name := range []string{
		"offload.rx.time_offloading_ns",
		"offload.rx.time_searching_ns",
		"offload.rx.time_tracking_ns",
		"offload.rx.resync_latency_ns",
	} {
		if hists[name].Count == 0 {
			t.Errorf("histogram %s empty", name)
		}
	}
	// Resync round trip: request and same-tick confirmation are 1µs apart
	// at most (the harness answers within the same packet step).
	if rt := hists["offload.rx.resync_latency_ns"]; rt.Max > int64(time.Microsecond) {
		t.Errorf("resync latency max %d, want <= 1µs for the zero-delay harness", rt.Max)
	}
}

func TestRxDisabledTelemetryNoEvents(t *testing.T) {
	ops := &tpOps{t: t}
	st := buildStream(1000, repeatSizes(150, 12), 5)
	h := &confirmHarness{st: st}
	e := NewRxEngine(ops, 1000, resyncFunc(h.request))
	h.e = e

	driveHeaderLoss(t, e, st, h) // never EnableTelemetry: must be a no-op

	var nilTr *telemetry.Tracer
	if nilTr.Len() != 0 {
		t.Error("nil tracer reports events")
	}
	if e.Stats.EnterSearching == 0 || e.Stats.Resumes == 0 {
		t.Error("counters must advance even with telemetry disabled")
	}
}
