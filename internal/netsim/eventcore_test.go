package netsim

import (
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/wire"
)

// modelQueue is the executable spec of the event core: the armed timers in
// the order they were armed, popped by a stable sort on the deadline alone,
// so FIFO among same-time events comes from the sort's stability and not
// from any sequence number.
type modelQueue struct {
	now     time.Duration
	steps   uint64
	pending []modelEvent
}

type modelEvent struct {
	id int
	at time.Duration
}

func (m *modelQueue) stop(id int) bool {
	i := slices.IndexFunc(m.pending, func(e modelEvent) bool { return e.id == id })
	if i < 0 {
		return false
	}
	m.pending = slices.Delete(m.pending, i, i+1)
	return true
}

func (m *modelQueue) arm(id int, at time.Duration) {
	m.stop(id)
	m.pending = append(m.pending, modelEvent{id, max(at, m.now)})
}

// next returns the event Step would run, if any is due by limit.
func (m *modelQueue) next(limit time.Duration) (modelEvent, bool) {
	order := slices.Clone(m.pending)
	sort.SliceStable(order, func(i, j int) bool { return order[i].at < order[j].at })
	if len(order) == 0 || order[0].at > limit {
		return modelEvent{}, false
	}
	return order[0], true
}

// checkEventOps drives the simulator and the model with the op sequence
// encoded in data and compares firing order, clock, step count, queue
// length and every timer's Pending after each op. Timers whose id is a
// multiple of three re-arm themselves from their own callback, twice.
func checkEventOps(t *testing.T, data []byte) {
	const forever = time.Duration(1<<63 - 1)
	sim, m := New(), &modelQueue{}
	var timers []*Timer
	var rearms []int
	var fired, want []int
	// callback is the handler of the next timer to be added.
	callback := func() func() {
		id := len(timers)
		return func() {
			fired = append(fired, id)
			if id%3 == 0 && rearms[id] < 2 {
				rearms[id]++
				timers[id].Reset(time.Duration(rearms[id]) * time.Microsecond)
			}
		}
	}
	add := func(tm *Timer) int {
		timers, rearms = append(timers, tm), append(rearms, 0)
		return len(timers) - 1
	}
	// modelStep mirrors one Step, including the callback's self re-arm.
	rearmed := make(map[int]int)
	modelStep := func(limit time.Duration) bool {
		e, ok := m.next(limit)
		if !ok {
			return false
		}
		m.stop(e.id)
		m.now = e.at
		m.steps++
		want = append(want, e.id)
		if e.id%3 == 0 && rearmed[e.id] < 2 {
			rearmed[e.id]++
			m.arm(e.id, m.now+time.Duration(rearmed[e.id])*time.Microsecond)
		}
		return true
	}
	for len(data) >= 3 {
		op, a, b := data[0], int(data[1]), time.Duration(data[2])*time.Microsecond
		data = data[3:]
		switch op % 7 {
		case 0: // At, possibly in the past
			at := b - 64*time.Microsecond + sim.Now()
			m.arm(add(sim.At(at, callback())), at)
		case 1:
			m.arm(add(sim.After(b, callback())), m.now+b)
		case 2:
			add(sim.NewTimer(callback()))
		case 3:
			if len(timers) > 0 {
				id := a % len(timers)
				timers[id].Reset(b)
				m.arm(id, m.now+b)
			}
		case 4:
			if len(timers) > 0 {
				id := a % len(timers)
				if got, want := timers[id].Stop(), m.stop(id); got != want {
					t.Fatalf("Stop(timer %d) = %v, model says %v", id, got, want)
				}
			}
		case 5:
			if got, want := sim.Step(), modelStep(forever); got != want {
				t.Fatalf("Step() = %v, model says %v", got, want)
			}
		case 6:
			until := sim.Now() + b
			sim.RunUntil(until)
			for modelStep(until) {
			}
			m.now = max(m.now, until)
		}
		if !slices.Equal(fired, want) {
			t.Fatalf("fired %v, model fired %v", fired, want)
		}
		if sim.Now() != m.now || sim.Steps() != m.steps || sim.QueueLen() != len(m.pending) {
			t.Fatalf("Now/Steps/QueueLen = %v/%d/%d, model says %v/%d/%d",
				sim.Now(), sim.Steps(), sim.QueueLen(), m.now, m.steps, len(m.pending))
		}
		for id, tm := range timers {
			armed := slices.ContainsFunc(m.pending, func(e modelEvent) bool { return e.id == id })
			if tm.Pending() != armed {
				t.Fatalf("timer %d Pending = %v, model says %v", id, tm.Pending(), armed)
			}
		}
		if sim.Quiesced() != (len(m.pending) == 0) {
			t.Fatalf("Quiesced = %v with %d armed in the model", sim.Quiesced(), len(m.pending))
		}
	}
}

func TestEventQueueAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		data := make([]byte, 3*(1+rng.Intn(400)))
		rng.Read(data)
		checkEventOps(t, data)
	}
}

func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{1, 0, 5, 1, 0, 5, 3, 0, 9, 5, 0, 0, 4, 1, 0, 6, 0, 20})
	f.Add([]byte{0, 0, 0, 0, 0, 200, 2, 0, 0, 3, 2, 0, 5, 0, 0, 5, 0, 0, 5, 0, 0})
	f.Fuzz(checkEventOps)
}

// TestStoppedTimersLeaveTheQueue is the tombstone regression: a socket's
// worth of timers armed, re-armed and stopped 100 000 times must leave
// nothing behind in the queue but the timers that are armed.
func TestStoppedTimersLeaveTheQueue(t *testing.T) {
	sim := New()
	rto := sim.NewTimer(func() {})
	delack := sim.NewTimer(func() {})
	sim.After(time.Hour, func() {})
	for i := 0; i < 100000; i++ {
		rto.Reset(200 * time.Millisecond)
		delack.Reset(40 * time.Millisecond)
		sim.After(time.Second, func() {}).Stop()
		if i%2 == 0 {
			delack.Stop()
		}
		sim.RunFor(time.Microsecond)
		if want := 2 + (i % 2); sim.QueueLen() != want {
			t.Fatalf("cycle %d: QueueLen = %d, want %d live timers", i, sim.QueueLen(), want)
		}
	}
}

func TestTimerResetStepNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting unreliable under -race")
	}
	sim := New()
	var timers [64]*Timer
	for i := range timers {
		timers[i] = sim.NewTimer(func() {})
		timers[i].Reset(time.Duration(i) * time.Microsecond)
	}
	i := 0
	if got := testing.AllocsPerRun(1000, func() {
		timers[i%64].Reset(time.Duration(i%7) * time.Microsecond)
		sim.Step()
		i++
	}); got != 0 {
		t.Errorf("Reset + Step = %v allocs, want 0", got)
	}
}

func TestLinkSendDeliverNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting unreliable under -race")
	}
	sim := New()
	pool := wire.NewFramePool()
	l := NewLink(sim, LinkConfig{Gbps: 100, Latency: 2 * time.Microsecond})
	l.SetPool(pool)
	l.AttachB(EndpointFunc(pool.Put)) // recycles every frame, as a NIC does
	burst := func() {
		for i := 0; i < 32; i++ {
			l.SendAtoB(pool.Get(1500))
		}
		sim.Run(0)
	}
	burst() // fills the pool and the link's free list
	if got := testing.AllocsPerRun(100, burst); got != 0 {
		t.Errorf("32 × SendAtoB + delivery = %v allocs at steady state, want 0", got)
	}
	if pool.InUse() != 0 || l.StatsAtoB().Delivered != l.StatsAtoB().Sent {
		t.Errorf("pool.InUse = %d, stats = %+v", pool.InUse(), l.StatsAtoB())
	}
}

// BenchmarkEventCore prices the simulator's own event handling with empty
// handlers (ROADMAP aim 1a, the netsim row).
func BenchmarkEventCore(b *testing.B) {
	nop := func() {}
	// After + Step with the queue held at a fixed depth.
	for _, depth := range []int{64, 8192} {
		b.Run("AfterStep/pending="+strconv.Itoa(depth), func(b *testing.B) {
			sim := New()
			for i := 0; i < depth; i++ {
				sim.After(time.Duration(i)*time.Microsecond, nop)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.After(time.Duration(depth)*time.Microsecond, nop)
				sim.Step()
			}
		})
	}
	// The RTO pattern: 1 000 armed timers, each pushed out again before it
	// can expire.
	b.Run("ResetChurn/timers=1000", func(b *testing.B) {
		sim := New()
		timers := make([]*Timer, 1000)
		for i := range timers {
			timers[i] = sim.NewTimer(nop)
			timers[i].Reset(200 * time.Millisecond)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			timers[i%len(timers)].Reset(200 * time.Millisecond)
			sim.RunFor(time.Microsecond)
		}
	})
	// The same pattern the way the stack wrote it before Reset existed.
	b.Run("StopAfter/timers=1000", func(b *testing.B) {
		sim := New()
		timers := make([]*Timer, 1000)
		for i := range timers {
			timers[i] = sim.After(200*time.Millisecond, nop)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			timers[i%len(timers)].Stop()
			timers[i%len(timers)] = sim.After(200*time.Millisecond, nop)
			sim.RunFor(time.Microsecond)
		}
	})
}

// BenchmarkLinkSend prices one frame through a clean link: send, the
// delivery event, and the hand-off to an endpoint that recycles the frame.
func BenchmarkLinkSend(b *testing.B) {
	sim := New()
	pool := wire.NewFramePool()
	l := NewLink(sim, LinkConfig{Gbps: 100, Latency: 2 * time.Microsecond})
	l.SetPool(pool)
	l.AttachB(EndpointFunc(pool.Put)) // recycles every frame, as a NIC does
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.SendAtoB(pool.Get(1500))
		if i%16 == 15 {
			sim.Run(0)
		}
	}
}
