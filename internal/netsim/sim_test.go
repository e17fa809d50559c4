package netsim

import (
	"slices"
	"testing"
	"time"

	"repro/internal/wire"
)

func TestEventOrdering(t *testing.T) {
	sim := New()
	var order []int
	sim.After(30*time.Microsecond, func() { order = append(order, 3) })
	sim.After(10*time.Microsecond, func() { order = append(order, 1) })
	sim.After(20*time.Microsecond, func() { order = append(order, 2) })
	sim.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("events ran in order %v", order)
	}
	if sim.Now() != 30*time.Microsecond {
		t.Errorf("Now() = %v, want 30µs", sim.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	sim := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		sim.At(time.Millisecond, func() { order = append(order, i) })
	}
	sim.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestTimerStop(t *testing.T) {
	sim := New()
	fired := false
	tm := sim.After(time.Millisecond, func() { fired = true })
	if !tm.Pending() {
		t.Error("timer should be pending")
	}
	if !tm.Stop() {
		t.Error("Stop should report true for a pending timer")
	}
	if tm.Stop() {
		t.Error("second Stop should report false")
	}
	sim.Run(0)
	if fired {
		t.Error("stopped timer fired")
	}
	tm = sim.After(time.Millisecond, func() { fired = true })
	sim.Run(0)
	if !fired || tm.Pending() {
		t.Errorf("fired = %v, Pending = %v after the timer ran", fired, tm.Pending())
	}
	if tm.Stop() {
		t.Error("Stop on a fired timer should report false")
	}
	if tm.Stop() {
		t.Error("second Stop on a fired timer should report false")
	}
}

func TestResetFromOwnCallback(t *testing.T) {
	sim := New()
	var tm *Timer
	var at []time.Duration
	tm = sim.NewTimer(func() {
		if tm.Pending() {
			t.Error("Pending inside the timer's own callback")
		}
		at = append(at, sim.Now())
		if len(at) < 3 {
			tm.Reset(time.Duration(len(at)) * time.Microsecond)
			if !tm.Pending() {
				t.Error("not Pending after re-arming from the callback")
			}
		}
	})
	if tm.Pending() || !sim.Quiesced() {
		t.Error("a new timer must not be armed")
	}
	tm.Reset(time.Microsecond)
	sim.Run(0)
	if want := []time.Duration{1 * time.Microsecond, 2 * time.Microsecond, 4 * time.Microsecond}; !slices.Equal(at, want) {
		t.Errorf("fired at %v, want %v", at, want)
	}
	if tm.Pending() || sim.Steps() != 3 || sim.QueueLen() != 0 {
		t.Errorf("Pending = %v, Steps = %d, QueueLen = %d at the end", tm.Pending(), sim.Steps(), sim.QueueLen())
	}
}

func TestRunUntil(t *testing.T) {
	sim := New()
	var at1, at2 bool
	sim.At(time.Millisecond, func() { at1 = true })
	sim.At(3*time.Millisecond, func() { at2 = true })
	sim.RunUntil(2 * time.Millisecond)
	if !at1 || at2 {
		t.Errorf("RunUntil: at1=%v at2=%v", at1, at2)
	}
	if sim.Now() != 2*time.Millisecond {
		t.Errorf("Now() = %v, want 2ms", sim.Now())
	}
	sim.Run(0)
	if !at2 {
		t.Error("remaining event never ran")
	}
}

func TestNestedScheduling(t *testing.T) {
	sim := New()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			sim.After(time.Microsecond, tick)
		}
	}
	sim.After(0, tick)
	sim.Run(0)
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
}

func collect(frames *[][]byte) Endpoint {
	return EndpointFunc(func(f wire.Frame) { *frames = append(*frames, f) })
}

func TestLinkDelivery(t *testing.T) {
	sim := New()
	l := NewLink(sim, LinkConfig{Latency: 5 * time.Microsecond})
	var got [][]byte
	l.AttachB(collect(&got))
	l.AttachA(EndpointFunc(func(wire.Frame) { t.Error("unexpected delivery to A") }))
	l.SendAtoB([]byte("one"))
	l.SendAtoB([]byte("two"))
	sim.Run(0)
	if len(got) != 2 || string(got[0]) != "one" || string(got[1]) != "two" {
		t.Errorf("got %q", got)
	}
	if s := l.StatsAtoB(); s.Sent != 2 || s.Delivered != 2 || s.Dropped != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLinkSerializationDelay(t *testing.T) {
	sim := New()
	// 1 Gbps: a 1250-byte frame takes 10µs to serialize.
	l := NewLink(sim, LinkConfig{Gbps: 1})
	var arrivals []time.Duration
	l.AttachB(EndpointFunc(func(wire.Frame) { arrivals = append(arrivals, sim.Now()) }))
	frame := make([]byte, 1250)
	l.SendAtoB(frame)
	l.SendAtoB(frame)
	sim.Run(0)
	if len(arrivals) != 2 {
		t.Fatalf("got %d arrivals", len(arrivals))
	}
	if arrivals[0] != 10*time.Microsecond {
		t.Errorf("first arrival at %v, want 10µs", arrivals[0])
	}
	if arrivals[1] != 20*time.Microsecond {
		t.Errorf("second arrival at %v, want 20µs (back-to-back serialization)", arrivals[1])
	}
}

func TestLinkLoss(t *testing.T) {
	sim := New()
	l := NewLink(sim, LinkConfig{AtoB: FaultConfig{LossProb: 0.3, Seed: 42}})
	n := 0
	l.AttachB(EndpointFunc(func(wire.Frame) { n++ }))
	const sent = 10000
	for i := 0; i < sent; i++ {
		l.SendAtoB([]byte{1})
	}
	sim.Run(0)
	s := l.StatsAtoB()
	if s.Dropped+uint64(n) != sent {
		t.Errorf("dropped %d + delivered %d != %d", s.Dropped, n, sent)
	}
	rate := float64(s.Dropped) / sent
	if rate < 0.27 || rate > 0.33 {
		t.Errorf("loss rate %.3f too far from 0.3", rate)
	}
}

func TestLinkReorder(t *testing.T) {
	sim := New()
	l := NewLink(sim, LinkConfig{
		Gbps: 10,
		AtoB: FaultConfig{ReorderProb: 0.2, Seed: 7},
	})
	var got []byte
	l.AttachB(EndpointFunc(func(f wire.Frame) { got = append(got, f[0]) }))
	for i := 0; i < 200; i++ {
		l.SendAtoB([]byte{byte(i)})
	}
	sim.Run(0)
	if len(got) != 200 {
		t.Fatalf("delivered %d frames", len(got))
	}
	ooo := 0
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			ooo++
		}
	}
	if ooo == 0 {
		t.Error("no out-of-order deliveries despite ReorderProb=0.2")
	}
	if l.StatsAtoB().Reordered == 0 {
		t.Error("reordered counter is zero")
	}
}

func TestLinkDuplication(t *testing.T) {
	sim := New()
	l := NewLink(sim, LinkConfig{AtoB: FaultConfig{DupProb: 0.5, Seed: 9}})
	n := 0
	l.AttachB(EndpointFunc(func(wire.Frame) { n++ }))
	for i := 0; i < 1000; i++ {
		l.SendAtoB([]byte{byte(i)})
	}
	sim.Run(0)
	s := l.StatsAtoB()
	if uint64(n) != 1000+s.Duplicated {
		t.Errorf("delivered %d, want 1000+%d", n, s.Duplicated)
	}
	if s.Duplicated < 400 || s.Duplicated > 600 {
		t.Errorf("duplicated %d of 1000 at p=0.5", s.Duplicated)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []byte {
		sim := New()
		l := NewLink(sim, LinkConfig{
			Gbps: 1,
			AtoB: FaultConfig{LossProb: 0.1, ReorderProb: 0.1, DupProb: 0.05, Seed: 123},
		})
		var got []byte
		l.AttachB(EndpointFunc(func(f wire.Frame) { got = append(got, f[0]) }))
		for i := 0; i < 500; i++ {
			l.SendAtoB([]byte{byte(i)})
		}
		sim.Run(0)
		return got
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Error("identical seeds produced different delivery sequences")
	}
}

func TestQuiesced(t *testing.T) {
	sim := New()
	if !sim.Quiesced() {
		t.Error("new simulator should be quiesced")
	}
	tm := sim.After(time.Second, func() {})
	if sim.Quiesced() {
		t.Error("pending event should block quiescence")
	}
	tm.Stop()
	if !sim.Quiesced() {
		t.Error("cancelled event should not block quiescence")
	}
}

func TestSetPeriodicFiresOnBoundaries(t *testing.T) {
	sim := New()
	var fires []time.Duration
	sim.SetPeriodic(10*time.Microsecond, func(now time.Duration) {
		if now != sim.Now() {
			t.Errorf("hook saw now=%v but clock=%v", now, sim.Now())
		}
		fires = append(fires, now)
	})
	// Events at 5, 25, 25, 40µs: boundaries 10, 20 fire before the 25µs
	// events, 30 and 40 fire before/at the 40µs one.
	for _, at := range []time.Duration{5 * time.Microsecond, 25 * time.Microsecond, 25 * time.Microsecond, 40 * time.Microsecond} {
		sim.At(at, func() {})
	}
	sim.RunUntil(55 * time.Microsecond)
	want := []time.Duration{10, 20, 30, 40, 50}
	if len(fires) != len(want) {
		t.Fatalf("fired at %v, want %d boundaries", fires, len(want))
	}
	for i, w := range want {
		if fires[i] != w*time.Microsecond {
			t.Errorf("fire %d at %v, want %v", i, fires[i], w*time.Microsecond)
		}
	}
	if sim.Now() != 55*time.Microsecond {
		t.Errorf("clock = %v, want 55µs", sim.Now())
	}
}

func TestSetPeriodicDoesNotBlockQuiescence(t *testing.T) {
	sim := New()
	sim.SetPeriodic(time.Microsecond, func(time.Duration) {})
	if !sim.Quiesced() {
		t.Error("a periodic hook must not keep the simulation alive")
	}
	sim.After(3*time.Microsecond, func() {})
	sim.Run(0)
	if !sim.Quiesced() {
		t.Error("simulation should quiesce after its last event despite the hook")
	}
}

func TestSteps(t *testing.T) {
	sim := New()
	for i := 0; i < 7; i++ {
		sim.After(time.Duration(i)*time.Microsecond, func() {})
	}
	sim.Run(0)
	if sim.Steps() != 7 {
		t.Errorf("Steps = %d, want 7", sim.Steps())
	}
}

func TestWireLatencySink(t *testing.T) {
	sim := New()
	l := NewLink(sim, LinkConfig{Gbps: 1, Latency: 5 * time.Microsecond})
	var lats []time.Duration
	l.AttachB(sinkEndpoint{fn: func(d time.Duration) { lats = append(lats, d) }})
	l.SendAtoB(make(wire.Frame, 1250)) // 10µs serialization at 1 Gbps
	l.SendAtoB(make(wire.Frame, 1250)) // queued behind the first: +10µs
	sim.Run(0)
	if len(lats) != 2 {
		t.Fatalf("got %d latency samples", len(lats))
	}
	if lats[0] != 15*time.Microsecond {
		t.Errorf("first frame latency %v, want 15µs", lats[0])
	}
	if lats[1] != 25*time.Microsecond {
		t.Errorf("queued frame latency %v, want 25µs", lats[1])
	}
}

type sinkEndpoint struct{ fn func(time.Duration) }

func (s sinkEndpoint) DeliverFrame(wire.Frame)         {}
func (s sinkEndpoint) NoteWireLatency(d time.Duration) { s.fn(d) }
