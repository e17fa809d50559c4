package netsim

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/wire"
)

// modelQueue is the executable spec of the event core: the armed timers
// and the frames in flight in the order they were armed or sent, popped by
// a stable sort on the deadline alone, so FIFO among same-time events comes
// from the sort's stability and not from any sequence number.
type modelQueue struct {
	now     time.Duration
	steps   uint64
	pending []modelEvent
	// fifo holds, per link direction, the in-order frames in flight; a
	// pending frame in neither overtook its direction's FIFO tail.
	fifo [2][]modelEvent
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

// send puts a frame arriving at at in flight on direction dir: behind the
// FIFO's tail unless that would overtake it.
func (m *modelQueue) send(id, dir int, at time.Duration) {
	m.arm(id, at)
	if f := m.fifo[dir]; len(f) == 0 || at >= f[len(f)-1].at {
		m.fifo[dir] = append(f, modelEvent{id, at})
	}
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

// heapNodes is what QueueLen must report: armed timers, one node per
// direction with in-order frames in flight, and every overtaking frame.
func (m *modelQueue) heapNodes() int {
	n := len(m.pending)
	for _, f := range m.fifo {
		n -= len(f)
		if len(f) > 0 {
			n++
		}
	}
	return n
}

// frameBase numbers frames apart from timers: frame k's first copy is
// frameBase+2k, its duplicate frameBase+2k+1.
const frameBase = 1 << 20

// wireProbe is a link endpoint that reports each delivery together with
// the wire latency the link noted just before it (-1: none noted).
type wireProbe struct {
	lat time.Duration
	fn  func(frame wire.Frame, lat time.Duration)
}

func (p *wireProbe) NoteWireLatency(d time.Duration) { p.lat = d }

func (p *wireProbe) DeliverFrame(f wire.Frame) {
	lat := p.lat
	p.lat = -1
	p.fn(f, lat)
}

// checkEventOps drives the simulator and the model with the op sequence
// encoded in data and compares firing order, clock, step count, queue
// length and every timer's Pending after each op. Timers whose id is a
// multiple of three re-arm themselves from their own callback, twice.
// Frames cross a link whose directions lose, hold back and duplicate
// them; the test mirrors the link's serializer and reads each frame's
// fate off the direction's counters, so the model knows when every copy
// must arrive.
func checkEventOps(t *testing.T, data []byte) {
	const forever = time.Duration(1<<63 - 1)
	sim, m := New(), &modelQueue{}
	cfg := LinkConfig{Gbps: 10, Latency: 3 * time.Microsecond,
		AtoB: FaultConfig{LossProb: 0.1, ReorderProb: 0.2, DupProb: 0.2, Seed: 1},
		BtoA: FaultConfig{LossProb: 0.05, ReorderProb: 0.1, DupProb: 0.1, Seed: 2}}
	link := NewLink(sim, cfg)
	var timers []*Timer
	var rearms []int
	var fired, want []int
	// sent[k] is when frame k was handed to the link; copies[k] how many
	// of its copies have arrived.
	var sent []time.Duration
	var copies []int
	var nextFree [2]time.Duration
	for dir, p := range []*wireProbe{{lat: -1}, {lat: -1}} {
		p.fn = func(f wire.Frame, lat time.Duration) {
			k := int(binary.BigEndian.Uint32(f))
			fired = append(fired, frameBase+2*k+copies[k])
			if want := sim.Now() - sent[k]; copies[k] == 0 && lat != want || copies[k] == 1 && lat != -1 {
				t.Fatalf("copy %d of frame %d noted wire latency %v, want %v", copies[k], k, lat, want)
			}
			copies[k]++
		}
		if dir == 0 {
			link.AttachB(p)
		} else {
			link.AttachA(p)
		}
	}
	send := func(dir, size int) {
		k := len(sent)
		frame := make(wire.Frame, size)
		binary.BigEndian.PutUint32(frame, uint32(k))
		sent, copies = append(sent, sim.Now()), append(copies, 0)
		serialize := time.Duration(float64(size) * 8 / (cfg.Gbps * 1e9) * float64(time.Second))
		nextFree[dir] = max(sim.Now(), nextFree[dir]) + serialize
		at := nextFree[dir] + cfg.Latency
		st := link.StatsPtrAtoB()
		if dir == 1 {
			st = link.StatsPtrBtoA()
		}
		before := *st
		if dir == 0 {
			link.SendAtoB(frame)
		} else {
			link.SendBtoA(frame)
		}
		if st.Dropped > before.Dropped {
			return
		}
		if st.Reordered > before.Reordered {
			at += 4 * max(serialize, time.Microsecond)
		}
		m.send(frameBase+2*k, dir, at)
		if st.Duplicated > before.Duplicated {
			m.send(frameBase+2*k+1, dir, at+max(serialize, time.Microsecond))
		}
	}
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
		for dir, f := range m.fifo {
			if len(f) > 0 && f[0].id == e.id {
				m.fifo[dir] = f[1:]
			}
		}
		if e.id < frameBase && e.id%3 == 0 && rearmed[e.id] < 2 {
			rearmed[e.id]++
			m.arm(e.id, m.now+time.Duration(rearmed[e.id])*time.Microsecond)
		}
		return true
	}
	for len(data) >= 3 {
		op, a, b := data[0], int(data[1]), time.Duration(data[2])*time.Microsecond
		data = data[3:]
		switch op % 8 {
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
		case 7: // a frame of 64 to 2 104 bytes on either direction
			send(a&1, 64+8*(a>>1))
		}
		if !slices.Equal(fired, want) {
			t.Fatalf("fired %v, model fired %v", fired, want)
		}
		if sim.Now() != m.now || sim.Steps() != m.steps || sim.QueueLen() != m.heapNodes() {
			t.Fatalf("Now/Steps/QueueLen = %v/%d/%d, model says %v/%d/%d",
				sim.Now(), sim.Steps(), sim.QueueLen(), m.now, m.steps, m.heapNodes())
		}
		for id, tm := range timers {
			armed := slices.ContainsFunc(m.pending, func(e modelEvent) bool { return e.id == id })
			if tm.Pending() != armed {
				t.Fatalf("timer %d Pending = %v, model says %v", id, tm.Pending(), armed)
			}
		}
		if sim.Quiesced() != (len(m.pending) == 0) {
			t.Fatalf("Quiesced = %v with %d armed or in flight in the model", sim.Quiesced(), len(m.pending))
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

// TestLinkFIFOAgainstModel is the model test biased toward traffic: about
// half the ops send a frame, so both directions keep several frames in
// flight, overtaking ones among them, while timers fire in between.
func TestLinkFIFOAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		data := make([]byte, 3*(1+rng.Intn(400)))
		rng.Read(data)
		for j := 0; j < len(data); j += 3 {
			if rng.Intn(2) == 0 {
				data[j] = 7
			}
		}
		checkEventOps(t, data)
	}
}

func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{1, 0, 5, 1, 0, 5, 3, 0, 9, 5, 0, 0, 4, 1, 0, 6, 0, 20})
	f.Add([]byte{0, 0, 0, 0, 0, 200, 2, 0, 0, 3, 2, 0, 5, 0, 0, 5, 0, 0, 5, 0, 0})
	f.Add([]byte{7, 0, 0, 7, 1, 0, 7, 200, 0, 1, 0, 1, 7, 3, 0, 7, 2, 0, 6, 0, 2, 7, 9, 0, 6, 0, 30})
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

// countingTarget is a timer owner that is its own target, as a socket is.
type countingTarget struct {
	timer Timer
	fired int
	log   *[]string
}

func (c *countingTarget) Fire() {
	c.fired++
	*c.log = append(*c.log, "target")
}

// TestTimerTargetNoAlloc: a timer held by value and fired through its
// owner costs nothing to initialise, arm, run or stop, and a target timer
// and a func() timer armed for the same instant keep their arming order.
func TestTimerTargetNoAlloc(t *testing.T) {
	sim := New()
	log := make([]string, 0, 8)
	c := &countingTarget{log: &log}
	f := sim.NewTimer(func() { log = append(log, "func") })

	c.timer.Init(sim, c)
	f.Reset(time.Microsecond)
	c.timer.Reset(time.Microsecond)
	sim.Run(0)
	f.Reset(time.Microsecond)
	c.timer.Reset(0)
	c.timer.Reset(time.Microsecond) // re-arming takes its place behind f
	sim.Run(0)
	c.timer.Reset(time.Microsecond)
	f.Reset(time.Microsecond)
	sim.Run(0)
	if want := []string{"func", "target", "func", "target", "target", "func"}; !slices.Equal(log, want) {
		t.Errorf("fired %v, want %v", log, want)
	}

	if raceEnabled {
		t.Skip("alloc counting unreliable under -race")
	}
	log = log[:0]
	if got := testing.AllocsPerRun(1000, func() {
		c.timer.Init(sim, c)
		c.timer.Reset(time.Microsecond)
		sim.Step()
		c.timer.Reset(time.Millisecond)
		c.timer.Stop()
		log = log[:0]
	}); got != 0 {
		t.Errorf("Init + Reset + fire + Stop through a target = %v allocs, want 0", got)
	}
	if c.fired != 3+1001 || sim.QueueLen() != 0 {
		t.Errorf("target fired %d times, queue holds %d timers", c.fired, sim.QueueLen())
	}
}

func TestLinkSendDeliverNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting unreliable under -race")
	}
	sim := New()
	pool := sim.Pool()
	l := NewLink(sim, LinkConfig{Gbps: 100, Latency: 2 * time.Microsecond})
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
// inflight=16 sends bursts of 16 and drains them; inflight=5700 keeps the
// ≈ 5 700 frames an iperf world queues behind a link serializer in flight
// (one send, one delivery per op), where a node per frame in the event
// heap would cost a sift through a 5 700-node heap per event.
func BenchmarkLinkSend(b *testing.B) {
	setup := func(b *testing.B) (*Simulator, *wire.FramePool, *Link) {
		sim := New()
		pool := sim.Pool()
		l := NewLink(sim, LinkConfig{Gbps: 100, Latency: 2 * time.Microsecond})
		l.AttachB(EndpointFunc(pool.Put)) // recycles every frame, as a NIC does
		b.ReportAllocs()
		return sim, pool, l
	}
	b.Run("inflight=16", func(b *testing.B) {
		sim, pool, l := setup(b)
		for i := 0; i < b.N; i++ {
			l.SendAtoB(pool.Get(1500))
			if i%16 == 15 {
				sim.Run(0)
			}
		}
	})
	b.Run("inflight=5700", func(b *testing.B) {
		sim, pool, l := setup(b)
		for i := 0; i < 5700; i++ {
			l.SendAtoB(pool.Get(1500))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.SendAtoB(pool.Get(1500))
			sim.Step()
		}
	})
}
