// Package netsim provides the deterministic discrete-event substrate the
// whole reproduction runs on: a virtual clock, an event queue, and duplex
// links with configurable bandwidth, latency, loss, reordering, and
// duplication.
//
// Determinism matters here: the paper's §6.4 experiments sweep loss and
// reordering probabilities, and the offload statistics (fully / partially /
// not offloaded records) must be reproducible run to run. The event loop is
// serial and a simulated world runs on one goroutine — virtclock bans the
// go statement outside package main — so results are byte-identical at any
// GOMAXPROCS; randomness comes only from explicitly seeded generators.
package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Simulator owns the virtual clock, the pending event queue and the frame
// pool of its world.
type Simulator struct {
	now      time.Duration
	seq      uint64
	steps    uint64
	queue    eventQueue
	periodic []*periodicHook
	pool     wire.FramePool
}

// New returns an empty simulator at virtual time zero.
func New() *Simulator { return &Simulator{} }

// Pool returns the frame pool every link and NIC on this simulator gets and
// puts frames through. It is unsynchronized: the simulator's one goroutine
// is what makes sharing it safe.
func (s *Simulator) Pool() *wire.FramePool { return &s.pool }

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Steps returns how many events have run since the simulator was created.
// The perf harness divides wall-clock time by it to report events/sec.
func (s *Simulator) Steps() uint64 { return s.steps }

// periodicHook is a clock-boundary callback registered via SetPeriodic.
type periodicHook struct {
	interval time.Duration
	next     time.Duration
	fn       func(now time.Duration)
}

// SetPeriodic registers fn to run at every multiple of interval on the
// virtual clock, starting with the first boundary strictly after now.
// Hooks fire outside the event queue — between events in Step and during
// RunUntil's trailing clock advance — so a registered hook never keeps
// the simulation from quiescing (unlike a self-rescheduling timer, which
// would make Quiesced false forever). The sampler's snapshot cadence
// rides on this. Hooks observe state; they must not schedule events.
func (s *Simulator) SetPeriodic(interval time.Duration, fn func(now time.Duration)) {
	if interval <= 0 || fn == nil {
		return
	}
	next := s.now - s.now%interval + interval
	s.periodic = append(s.periodic, &periodicHook{interval: interval, next: next, fn: fn})
}

// firePeriodic runs every due boundary hook with time ≤ upto, in boundary
// order (registration order among ties), advancing the clock to each
// boundary as it fires.
func (s *Simulator) firePeriodic(upto time.Duration) {
	if len(s.periodic) == 0 {
		return
	}
	for {
		var due *periodicHook
		for _, h := range s.periodic {
			if h.next <= upto && (due == nil || h.next < due.next) {
				due = h
			}
		}
		if due == nil {
			return
		}
		if s.now < due.next {
			s.now = due.next
		}
		due.fn(due.next)
		due.next += due.interval
	}
}

// Timer is a callback on the virtual clock and, while pending, its own node
// in the simulator's event heap: stopping it removes the node at once and
// re-arming it moves the node in place, so the heap only ever holds live
// timers (DESIGN.md "Event core").
type Timer struct {
	sim   *Simulator
	at    time.Duration
	seq   uint64 // tie-break: FIFO among same-time events
	fn    func()
	index int // position in sim.queue; -1 while not pending
}

// NewTimer returns an unarmed timer that runs fn each time it expires; arm
// (and re-arm) it with Reset. It takes no place in the event order until
// then.
func (s *Simulator) NewTimer(fn func()) *Timer {
	t := new(Timer)
	t.Init(s, fn)
	return t
}

// Init makes t an unarmed timer of s that runs fn, in place: an owner that
// holds its timers by value (a socket, a link) needs no allocation for
// them. Init must not be called on a pending timer.
func (t *Timer) Init(s *Simulator, fn func()) {
	*t = Timer{sim: s, fn: fn, index: -1}
}

// Reset arms the timer to fire d after the current virtual time, whether
// or not it was pending: the same as Stop followed by After, without the
// allocation. It takes its place in the same-time FIFO order now.
//
//simlint:hotpath
func (t *Timer) Reset(d time.Duration) { t.sim.schedule(t, t.sim.now+d) }

// Stop cancels the timer. Stopping an already-fired or already-stopped
// timer is a no-op. It reports whether the timer was still pending.
func (t *Timer) Stop() bool {
	if !t.Pending() {
		return false
	}
	t.sim.queue.remove(t.index)
	return true
}

// Pending reports whether the timer is armed: false once it has been
// stopped or has expired, including inside its own callback.
func (t *Timer) Pending() bool { return t != nil && t.index >= 0 }

// At schedules fn at absolute virtual time t (clamped to now).
func (s *Simulator) At(t time.Duration, fn func()) *Timer {
	tm := s.NewTimer(fn)
	s.schedule(tm, t)
	return tm
}

// After schedules fn d after the current virtual time.
func (s *Simulator) After(d time.Duration, fn func()) *Timer {
	return s.At(s.now+d, fn)
}

// schedule queues t (or moves it, if already queued) to fire at absolute
// time at, clamped to now, behind every event already scheduled for then.
func (s *Simulator) schedule(t *Timer, at time.Duration) {
	at, seq := s.reserve(at)
	s.scheduleSeq(t, at, seq)
}

// reserve takes the next place in the event order for an event at time
// at, clamped to now.
func (s *Simulator) reserve(at time.Duration) (time.Duration, uint64) {
	s.seq++
	return max(at, s.now), s.seq - 1
}

// scheduleSeq queues or moves t to the position (at, seq) that reserve
// handed out earlier: a link's direction timer is re-armed at the slot its
// next frame reserved when it was sent.
func (s *Simulator) scheduleSeq(t *Timer, at time.Duration, seq uint64) {
	t.at, t.seq = at, seq
	if t.index < 0 {
		t.index = len(s.queue)
		s.queue = append(s.queue, t)
	}
	s.queue.fix(t.index)
}

// Step runs the earliest pending event, advancing the clock to it.
// It reports whether an event ran.
//
//simlint:hotpath
func (s *Simulator) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	t := s.queue[0]
	s.queue.remove(0)
	s.firePeriodic(t.at)
	s.now = t.at
	s.steps++
	t.fn()
	return true
}

// Run processes events until the queue is empty or maxEvents have run.
// It returns the number of events processed. A maxEvents of 0 means no
// limit; the simulation must quiesce on its own.
func (s *Simulator) Run(maxEvents int) int {
	n := 0
	for s.Step() {
		n++
		if maxEvents > 0 && n >= maxEvents {
			break
		}
	}
	return n
}

// RunUntil processes events with time ≤ t, then sets the clock to t.
func (s *Simulator) RunUntil(t time.Duration) {
	for len(s.queue) > 0 && s.queue[0].at <= t {
		s.Step()
	}
	s.firePeriodic(t)
	if s.now < t {
		s.now = t
	}
}

// RunFor advances the clock by d, processing all events in the window.
func (s *Simulator) RunFor(d time.Duration) { s.RunUntil(s.now + d) }

// QueueLen returns the number of nodes in the event heap: armed timers, one
// per link direction with in-order frames in flight, and one per frame that
// overtook its direction's FIFO. Stopped timers leave the heap immediately.
func (s *Simulator) QueueLen() int { return len(s.queue) }

// Quiesced reports whether no events remain.
func (s *Simulator) Quiesced() bool { return len(s.queue) == 0 }

// eventQueue is a 4-ary min-heap of pending timers ordered by (at, seq),
// each knowing its own position so it can be removed or moved in O(log n).
// Four children per node halve the depth of a binary heap; the extra
// comparisons per level touch adjacent slots.
type eventQueue []*Timer

func (t *Timer) before(u *Timer) bool {
	return t.at < u.at || (t.at == u.at && t.seq < u.seq)
}

// remove takes the timer at position i out of the heap.
func (q *eventQueue) remove(i int) {
	h := *q
	h[i].index = -1
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	*q = h[:n]
	if i < n {
		h[i] = last
		q.fix(i)
	}
}

// fix restores heap order after the key of the timer at position i changed.
func (q eventQueue) fix(i int) {
	t := q[i]
	if !q.down(t, i) {
		q.up(t, i)
	}
}

// up sifts t, whose slot i is treated as a hole, toward the root.
func (q eventQueue) up(t *Timer, i int) {
	for i > 0 {
		p := (i - 1) / 4
		if !t.before(q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = i
		i = p
	}
	q[i] = t
	t.index = i
}

// down sifts t, whose slot i is treated as a hole, toward the leaves and
// reports whether it moved.
func (q eventQueue) down(t *Timer, i int) bool {
	start, n := i, len(q)
	for c := 4*i + 1; c < n; c = 4*i + 1 {
		min, first := c, q[c]
		for k := c + 1; k < c+4 && k < n; k++ {
			if q[k].before(first) {
				min, first = k, q[k]
			}
		}
		if !first.before(t) {
			break
		}
		q[i] = first
		first.index = i
		i = min
	}
	q[i] = t
	t.index = i
	return i != start
}

// FaultConfig describes impairments applied to one link direction,
// mirroring the netem knobs the paper uses in §6.4 plus the harsher
// chaos-testing faults (corruption, burst loss, outages) real links show.
type FaultConfig struct {
	// LossProb is the probability a frame is silently dropped.
	LossProb float64
	// ReorderProb is the probability a frame is held back by 4 frame-times
	// at the link rate (at least 1µs each), letting later frames overtake
	// it.
	ReorderProb float64
	// DupProb is the probability a frame is delivered twice.
	DupProb float64
	// CorruptProb is the probability a frame is delivered with its bytes
	// damaged. The damage is applied by Corrupter, or, when Corrupter is
	// nil, by flipping one uniformly chosen bit anywhere in the frame
	// (which L3/L4 checksums then catch).
	CorruptProb float64
	// Corrupter, when set, applies the damage for CorruptProb to a private
	// copy of the frame, drawing any randomness from rng so runs stay
	// deterministic. It reports whether it actually changed anything
	// (frames with nothing to corrupt — e.g. pure ACKs for a payload
	// corrupter — pass through unchanged and uncounted).
	Corrupter func(rng *rand.Rand, frame wire.Frame) bool
	// Burst, when set, adds a Gilbert–Elliott two-state burst-loss channel
	// on top of LossProb.
	Burst *GilbertElliott
	// CEMarkProb is the probability an ECN-capable frame is delivered with
	// its codepoint rewritten to CE ("congestion experienced"), the way an
	// AQM-enabled router signals congestion without dropping. Frames that
	// are not ECT pass through unmarked (and consume no extra randomness
	// when the probability is zero, preserving existing seeded sequences).
	CEMarkProb float64
	// Blackouts lists timed link outages: frames sent while a window is
	// active are dropped wholesale.
	Blackouts []Blackout
	// Seed seeds this direction's fault generator.
	Seed int64
}

// GilbertElliott is the classic two-state Markov burst-loss channel: a
// "good" state with low loss and a "bad" state with high loss, with
// per-frame transition probabilities between them. It models the bursty
// losses (buffer overruns, brief interference) that independent per-frame
// LossProb cannot.
type GilbertElliott struct {
	// PGoodBad is the per-frame probability of moving good→bad.
	PGoodBad float64
	// PBadGood is the per-frame probability of moving bad→good.
	PBadGood float64
	// LossGood is the loss probability while in the good state.
	LossGood float64
	// LossBad is the loss probability while in the bad state.
	LossBad float64
}

// Blackout is a timed link outage: every frame sent in [Start, End) is
// lost, as when a cable flaps or a switch reboots.
type Blackout struct {
	Start, End time.Duration
}

// DirStats counts what happened on one link direction.
type DirStats struct {
	Sent          uint64 // frames handed to the link
	Delivered     uint64 // frames delivered (duplicates count)
	Dropped       uint64 // all drops (loss + burst + blackout)
	Reordered     uint64
	Duplicated    uint64
	Corrupted     uint64 // frames delivered damaged
	BurstDropped  uint64 // drops charged to the Gilbert–Elliott model
	BlackoutDrops uint64 // drops charged to blackout windows
	CEMarked      uint64 // frames delivered with the ECN codepoint set to CE
	MTUDrops      uint64 // frames dropped for exceeding the link MTU
	Bytes         uint64 // payload-bearing frame bytes delivered
}

// LinkConfig describes a duplex link.
type LinkConfig struct {
	// Gbps is the serialization rate; 0 means infinitely fast.
	Gbps float64
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// AtoB and BtoA configure per-direction impairments.
	AtoB, BtoA FaultConfig
}

// Endpoint consumes frames arriving from a link.
type Endpoint interface {
	DeliverFrame(frame wire.Frame)
}

// EndpointFunc adapts a function to the Endpoint interface.
type EndpointFunc func(frame wire.Frame)

// DeliverFrame calls f.
func (f EndpointFunc) DeliverFrame(frame wire.Frame) { f(frame) }

// WireLatencySink is implemented by endpoints that want each frame's wire
// latency — the virtual time from handoff to the link (including
// serializer queueing and any reorder hold) until delivery. The link
// checks by type assertion at delivery and calls NoteWireLatency
// immediately before DeliverFrame. Duplicated frames are delivered but
// not measured, so latency sample counts match first-copy deliveries.
// The NIC's lifecycle layer uses this for the per-queue wire-stage
// histogram.
type WireLatencySink interface {
	NoteWireLatency(d time.Duration)
}

// Link is a duplex point-to-point link between endpoints A and B. Its
// frames belong to the simulator's pool: senders get them there, the link
// returns the ones it drops (loss, burst, blackout, MTU) and takes the
// private copies it makes for duplication, corruption and CE marking from
// it (a replaced original returns), and the receiving endpoint returns a
// delivered one, so gets and puts balance when the world quiesces.
type Link struct {
	sim *Simulator
	cfg LinkConfig
	// mtu is the maximum frame size in bytes (Ethernet header included);
	// larger frames are dropped, as on a real path whose MTU shrank under
	// a sender that has not re-segmented yet. 0 means unlimited.
	mtu    int
	a, b   Endpoint
	dirs   [2]direction
	tracer *telemetry.Tracer
	tids   [2]string // per-direction track labels, precomputed at attach
	free   *delivery // fired delivery nodes awaiting reuse
}

type direction struct {
	rng      *rand.Rand
	stats    DirStats
	nextFree time.Duration // when the serializer is next available
	geBad    bool          // Gilbert–Elliott channel state
	// head..tail are the frames in flight in arrival order, linked through
	// delivery.next; timer is armed at head's reserved (at, seq), so the
	// whole FIFO costs the event heap one node.
	head, tail *delivery
	timer      Timer
}

// NewLink creates a link; attach endpoints with AttachA/AttachB before
// sending.
func NewLink(sim *Simulator, cfg LinkConfig) *Link {
	l := &Link{sim: sim, cfg: cfg}
	for dir := range l.dirs {
		l.dirs[dir].timer.Init(sim, func() { l.fireHead(dir) })
	}
	l.dirs[0].rng = rand.New(rand.NewSource(cfg.AtoB.Seed + 1))
	l.dirs[1].rng = rand.New(rand.NewSource(cfg.BtoA.Seed + 2))
	return l
}

// AttachA sets the endpoint on the A side.
func (l *Link) AttachA(e Endpoint) { l.a = e }

// AttachB sets the endpoint on the B side.
func (l *Link) AttachB(e Endpoint) { l.b = e }

// SendAtoB transmits a frame from A toward B.
func (l *Link) SendAtoB(frame wire.Frame) { l.send(0, frame) }

// SendBtoA transmits a frame from B toward A.
func (l *Link) SendBtoA(frame wire.Frame) { l.send(1, frame) }

// SetFaultsAtoB replaces the A→B impairments mid-run. Chaos harnesses use
// this to keep connection establishment clean and arm faults only for the
// measurement window. The direction's generator is re-seeded from the new
// config, so the resulting fault sequence depends only on the config — not
// on how many draws the previous one consumed.
func (l *Link) SetFaultsAtoB(fc FaultConfig) { l.setFaults(0, fc) }

// SetFaultsBtoA replaces the B→A impairments mid-run (see SetFaultsAtoB).
func (l *Link) SetFaultsBtoA(fc FaultConfig) { l.setFaults(1, fc) }

func (l *Link) setFaults(dir int, fc FaultConfig) {
	if dir == 0 {
		l.cfg.AtoB = fc
	} else {
		l.cfg.BtoA = fc
	}
	l.dirs[dir].rng = rand.New(rand.NewSource(fc.Seed + int64(dir) + 1))
	l.dirs[dir].geBad = false
}

// SetMTU changes the link's path MTU mid-run (both directions), modelling a
// route change onto a narrower or wider path at a virtual-clock instant.
// Frames already in flight are unaffected; frames sent after the change are
// dropped if they exceed the new MTU. 0 removes the limit.
func (l *Link) SetMTU(mtu int) { l.mtu = mtu }

// StatsAtoB returns counters for the A→B direction.
func (l *Link) StatsAtoB() DirStats { return l.dirs[0].stats }

// StatsBtoA returns counters for the B→A direction.
func (l *Link) StatsBtoA() DirStats { return l.dirs[1].stats }

// StatsPtrAtoB returns the live A→B counters for telemetry registration.
func (l *Link) StatsPtrAtoB() *DirStats { return &l.dirs[0].stats }

// StatsPtrBtoA returns the live B→A counters for telemetry registration.
func (l *Link) StatsPtrBtoA() *DirStats { return &l.dirs[1].stats }

// EnableTrace starts emitting per-frame trace events (pkt.tx, pkt.rx, and
// drop reasons) on the tracer's timeline. The name labels this link's two
// direction tracks ("name.a>b", "name.b>a"); labels are built here, once,
// so the per-frame path never formats strings.
func (l *Link) EnableTrace(tr *telemetry.Tracer, name string) {
	l.tracer = tr
	l.tids[0] = name + ".a>b"
	l.tids[1] = name + ".b>a"
}

//simlint:hotpath
func (l *Link) send(dir int, frame wire.Frame) {
	d := &l.dirs[dir]
	fc := l.cfg.AtoB
	dst := l.b
	if dir == 1 {
		fc = l.cfg.BtoA
		dst = l.a
	}
	if dst == nil {
		panic(fmt.Sprintf("netsim: link direction %d has no endpoint", dir))
	}
	d.stats.Sent++
	l.tracer.Instant1("net", "pkt.tx", l.tids[dir], "bytes", int64(len(frame)))

	// Path MTU: frames too large for the current path are dropped outright.
	// The stack learns via loss or is told out of band (SetMTU) by the
	// harness playing PMTUD. No rng draw, so enabling an MTU does not
	// perturb the fault sequences.
	if l.mtu > 0 && len(frame) > l.mtu {
		d.stats.MTUDrops++
		d.stats.Dropped++
		l.tracer.Instant1("net", "pkt.drop.mtu", l.tids[dir], "bytes", int64(len(frame)))
		l.sim.pool.Put(frame)
		return
	}

	// Serialization: the frame occupies the transmitter for its wire time.
	now := l.sim.Now()
	start := now
	if d.nextFree > start {
		start = d.nextFree
	}
	var serialize time.Duration
	if l.cfg.Gbps > 0 {
		serialize = time.Duration(float64(len(frame)) * 8 / (l.cfg.Gbps * 1e9) * float64(time.Second))
	}
	d.nextFree = start + serialize
	arrive := start + serialize + l.cfg.Latency

	// Blackout windows drop everything sent while active (no rng draw, so
	// configuring them does not perturb the other faults' sequences).
	for _, w := range fc.Blackouts {
		if now >= w.Start && now < w.End {
			d.stats.BlackoutDrops++
			d.stats.Dropped++
			l.tracer.Instant("net", "pkt.drop.blackout", l.tids[dir])
			l.sim.pool.Put(frame)
			return
		}
	}
	// Gilbert–Elliott burst loss: advance the channel state, then draw
	// against the current state's loss probability.
	if ge := fc.Burst; ge != nil {
		if d.geBad {
			if d.rng.Float64() < ge.PBadGood {
				d.geBad = false
			}
		} else if d.rng.Float64() < ge.PGoodBad {
			d.geBad = true
		}
		p := ge.LossGood
		if d.geBad {
			p = ge.LossBad
		}
		if p > 0 && d.rng.Float64() < p {
			d.stats.BurstDropped++
			d.stats.Dropped++
			l.tracer.Instant("net", "pkt.drop.burst", l.tids[dir])
			l.sim.pool.Put(frame)
			return
		}
	}
	if fc.LossProb > 0 && d.rng.Float64() < fc.LossProb {
		d.stats.Dropped++
		l.tracer.Instant("net", "pkt.drop.loss", l.tids[dir])
		l.sim.pool.Put(frame)
		return
	}
	if fc.ReorderProb > 0 && d.rng.Float64() < fc.ReorderProb {
		d.stats.Reordered++
		arrive += 4 * max(serialize, time.Microsecond)
	}
	// Corruption damages a private copy so the sender's retransmit buffers
	// (and a later duplicate of the same frame) are unaffected. The copy
	// comes from the pool and the replaced original returns to it.
	if fc.CorruptProb > 0 && d.rng.Float64() < fc.CorruptProb {
		dam := l.sim.pool.Clone(frame)
		changed := false
		if fc.Corrupter != nil {
			changed = fc.Corrupter(d.rng, dam)
		} else {
			changed = wire.FlipRandomBit(d.rng, dam)
		}
		if changed {
			d.stats.Corrupted++
			l.tracer.Instant("net", "pkt.corrupt", l.tids[dir])
			l.sim.pool.Put(frame)
			frame = dam
		} else {
			l.sim.pool.Put(dam)
		}
	}
	// ECN: an AQM router under (simulated) congestion rewrites ECT frames
	// to CE instead of dropping them. Marking happens on a private copy so
	// sender-side buffers and duplicates stay pristine; non-ECT frames pass
	// through and still consume the draw, keeping the sequence a pure
	// function of the config.
	if fc.CEMarkProb > 0 && d.rng.Float64() < fc.CEMarkProb {
		marked := l.sim.pool.Clone(frame)
		if wire.SetCE(marked) {
			d.stats.CEMarked++
			l.tracer.Instant("net", "pkt.ce", l.tids[dir])
			l.sim.pool.Put(frame)
			frame = marked
		} else {
			l.sim.pool.Put(marked)
		}
	}
	l.deliverAt(arrive, now, dir, dst, frame, false)
	if fc.DupProb > 0 && d.rng.Float64() < fc.DupProb {
		d.stats.Duplicated++
		l.deliverAt(arrive+max(serialize, time.Microsecond), now, dir, dst, l.sim.pool.Clone(frame), true)
	}
}

// delivery is one frame in flight with what the handler needs, so sending
// a frame builds no closure. timer.at and timer.seq are the frame's place
// in the event order, reserved at send time. An in-order frame waits in
// its direction's FIFO and its timer never enters the heap; a frame that
// overtakes the FIFO's tail (a reorder hold behind it, a duplicate copy)
// is scheduled on its own timer. The timer's handle never leaves the link,
// which is what makes it safe to recycle the node through Link.free once
// it has fired.
type delivery struct {
	timer Timer
	link  *Link
	next  *delivery // the free list, or the direction's FIFO
	dst   Endpoint  // resolved at send time
	frame wire.Frame
	sent  time.Duration
	dir   int
	dup   bool // second copy of a duplicated frame: not traced, not measured
}

// deliverAt queues frame, handed to the link at virtual time sent, for
// delivery to dst at time at. The frame takes its seq now, exactly where
// scheduling its own timer would, so the pop order does not depend on
// which of the two ways it waits.
//
//simlint:hotpath
func (l *Link) deliverAt(at, sent time.Duration, dir int, dst Endpoint, frame wire.Frame, dup bool) {
	v := l.free
	if v == nil {
		v = l.newDelivery()
	} else {
		l.free = v.next
	}
	v.dst, v.frame, v.sent, v.dir, v.dup = dst, frame, sent, dir, dup
	d := &l.dirs[dir]
	if d.tail != nil && at < d.tail.timer.at {
		l.sim.schedule(&v.timer, at)
		return
	}
	v.timer.at, v.timer.seq = l.sim.reserve(at)
	v.next = nil
	if d.tail == nil {
		d.head = v
		l.sim.scheduleSeq(&d.timer, v.timer.at, v.timer.seq)
	} else {
		d.tail.next = v
	}
	d.tail = v
}

func (l *Link) newDelivery() *delivery {
	v := &delivery{link: l}
	v.timer.Init(l.sim, v.fire)
	return v
}

// fireHead is a direction timer's event: it delivers the FIFO's head and
// re-arms the timer at the next frame's reserved slot first, so a send
// from inside DeliverFrame appends behind it.
//
//simlint:hotpath
func (l *Link) fireHead(dir int) {
	d := &l.dirs[dir]
	v := d.head
	if d.head = v.next; d.head == nil {
		d.tail = nil
	} else {
		l.sim.scheduleSeq(&d.timer, d.head.timer.at, d.head.timer.seq)
	}
	v.fire()
}

// fire delivers the frame: it is the event of a node on its own timer and
// the tail end of fireHead. The node goes back on the free list, holding
// neither frame nor endpoint, before the endpoint runs, so a send from
// inside DeliverFrame can already reuse it.
//
//simlint:hotpath
func (v *delivery) fire() {
	l, dst, frame := v.link, v.dst, v.frame
	d := &l.dirs[v.dir]
	d.stats.Delivered++
	d.stats.Bytes += uint64(len(frame))
	if !v.dup {
		l.tracer.Instant1("net", "pkt.rx", l.tids[v.dir], "bytes", int64(len(frame)))
		if sink, ok := dst.(WireLatencySink); ok {
			sink.NoteWireLatency(v.timer.at - v.sent)
		}
	}
	v.dst, v.frame = nil, nil
	v.next, l.free = l.free, v
	dst.DeliverFrame(frame)
}
