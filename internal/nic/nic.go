// Package nic is the simulated NIC: the device that sits between the TCP
// stack and the link. It owns frame (de)serialization, per-packet driver
// and DMA cost accounting, the per-flow offload engines, and the bounded
// context cache whose capacity the scalability experiment of §6.5 stresses.
//
// The NIC knows nothing about TLS or NVMe-TCP specifically: L5P code
// attaches generic offload engines (offload.TxEngine / offload.RxEngine)
// per flow — the l5o_create/l5o_destroy surface of Listing 1 — and the NIC
// runs them over every matching packet.
//
// The device is multi-queue: flows spread over Config.Queues RX/TX queue
// pairs by an RSS-style hash of the flow id (wire.FlowID.Hash), the way
// real NICs steer. Each queue owns its offload-engine maps and its Stats
// block; the bounded context cache is shared device-wide, because flow
// contexts live in NIC memory, not queue memory — which is exactly why
// connection churn on one queue can evict another queue's contexts.
package nic

import (
	"strconv"
	"time"

	"repro/internal/cycles"
	"repro/internal/meta"
	"repro/internal/netsim"
	"repro/internal/offload"
	"repro/internal/tcpip"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Config sets the device parameters.
type Config struct {
	// Model and Ledger are the host's cost model and ledger; NIC-side work
	// is charged to the cycles.NIC and cycles.PCIe components.
	Model  *cycles.Model
	Ledger *cycles.Ledger
	// Queues is the number of RX/TX queue pairs (RSS). Flows hash to a
	// queue with wire.FlowID.Hash; 0 or 1 means a single queue.
	Queues int
	// CtxCacheFlows bounds the on-NIC context cache (number of flow
	// contexts held). Zero means unbounded. The paper's ConnectX-6 Dx
	// holds at most ≈20 K flows in 4 MiB (§6.5). The cache is shared by
	// all queues.
	CtxCacheFlows int
	// Chaos, when set, injects NIC-internal faults (chaos.go).
	Chaos *ChaosConfig
	// Pool recycles frame buffers across the transmit and receive paths.
	// All NICs and links of one world must share it (see wire.FramePool).
	// Nil falls back to per-frame allocation.
	Pool *wire.FramePool
	// RxPollDelay is the interrupt-coalescing window: the receive poll
	// fires this long after the frame that armed it, letting line-rate
	// traffic accumulate a batch per poll instead of one frame per event.
	// Zero polls at the arming timestamp (no added latency). Adds up to
	// one delay of receive latency, like rx-usecs on a real NIC.
	RxPollDelay time.Duration
}

const (
	// rxPollBudget caps how many frames one receive-poll event processes
	// per queue (the NAPI budget, NAPI_POLL_WEIGHT); remaining frames are
	// handled by a re-scheduled poll.
	rxPollBudget = 64
	// ctxBytes is the size of one flow context (208 B in the paper).
	ctxBytes = 208
)

// Stats counts device events. Each queue carries its own block; NIC.Stats
// merges them into the whole-device view.
type Stats struct {
	TxPackets     uint64
	RxPackets     uint64
	RxBadFrames   uint64
	TxBytes       uint64
	RxBytes       uint64
	CtxCacheHits  uint64
	CtxCacheMiss  uint64 // context reloaded over PCIe (Fig. 19 regime)
	TxRecoveryDMA uint64 // bytes DMA-read for transmit context recovery

	// Chaos and degradation counters.
	RxRingStalls      uint64 // injected receive-ring stall episodes
	RxRingStallDrops  uint64 // frames those stalls swallowed
	CtxInvalidations  uint64 // injected whole-cache context invalidations
	RxFallbacks       uint64 // flows whose rx engine fell back to software
	RxCorruptionDrops uint64 // messages rx engines rejected as corrupt

	// Receive-engine FSM transition counters, harvested from every engine
	// this queue has run (Fig. 7): how often flows lost sync, how often
	// they entered candidate tracking, and how often they resumed
	// offloading.
	RxSearches uint64
	RxTracks   uint64
	RxResumes  uint64

	// RxCEMarks counts received frames carrying the ECN CE codepoint — the
	// congestion signal the NIC sees on the wire before TCP reacts to it.
	RxCEMarks uint64

	// Batching counters: how often the polled hot path fired and how much
	// work each firing moved. Frames-per-poll and packets-per-doorbell
	// ratios are the "is batching actually happening" gauges of the perf
	// harness.
	RxPolls           uint64 // receive poll events that found work on this queue
	RxPolledFrames    uint64 // frames those polls completed
	TxDoorbells       uint64 // doorbell events that found posted packets
	TxDoorbellPackets uint64 // packets those doorbells flushed
}

// rxSlot parks one arrived frame on the receive backlog, tagged with its
// steered queue, until the next poll event completes it.
type rxSlot struct {
	q     *Queue
	frame wire.Frame
}

// txSlot is one posted packet awaiting the coalesced doorbell: its frame,
// already whole but for the TCP checksum, and the few packet fields the
// doorbell reads. The device keeps nothing of the posted packet itself
// (tcpip.NetDevice), so Transmit's payload copy and header write are the
// "DMA" out of host memory; the doorbell runs the engines over the frame's
// payload and then checksums it.
type txSlot struct {
	q         *Queue
	frame     wire.Frame
	flow      wire.FlowID
	seq       uint32
	payOff    int     // where the payload starts in frame
	txCycles  float64 // the stack's cycles for the packet (lifecycle tx.enqueue)
	driverCyc float64 // driver cycles charged for this packet (engine phase)
	nicNs     int64   // lifecycle tx.engine nanoseconds (engine phase)
}

// Queue is one RX/TX queue pair. Flows are steered here by the RSS hash;
// the queue owns the offload engines and accounting for its flows, while
// the context cache stays shared on the NIC.
type Queue struct {
	id  int
	nic *NIC

	tx     map[wire.FlowID]*offload.TxEngine
	rx     map[wire.FlowID]*offload.RxEngine
	rxSeen map[*offload.RxEngine]rxSeen

	// touched lists engines run since the last harvest, so completion
	// counters fold once per poll batch instead of once per packet.
	touched []*offload.RxEngine

	// Stats is exported for experiments and registered per queue with the
	// telemetry registry; treat as read-only. NIC.Stats() returns every
	// queue merged.
	Stats Stats
}

// noteTouched marks an engine as run in the current receive batch. The
// slice stays tiny (engines per queue per batch), so a linear scan beats
// any map.
func (q *Queue) noteTouched(e *offload.RxEngine) {
	for _, t := range q.touched {
		if t == e {
			return
		}
	}
	q.touched = append(q.touched, e)
}

// forgetTouched drops an engine from the pending-harvest list; DetachRx
// calls it after the final harvest so a batch-deferred harvest cannot
// resurrect the engine's rxSeen snapshot.
func (q *Queue) forgetTouched(e *offload.RxEngine) {
	for i, t := range q.touched {
		if t == e {
			q.touched = append(q.touched[:i], q.touched[i+1:]...)
			return
		}
	}
}

// ID returns the queue's index.
func (q *Queue) ID() int { return q.id }

// EngineFlows returns the number of flows with attached transmit and
// receive engines on this queue. Leak checks churn attach/detach and
// assert these return to baseline.
func (q *Queue) EngineFlows() (tx, rx int) { return len(q.tx), len(q.rx) }

// HarvestPending returns the number of engines with harvest snapshots
// still held (rxSeen entries); it must track attached rx engines, or
// detach leaked.
func (q *Queue) HarvestPending() int { return len(q.rxSeen) }

// NIC is one host's network device.
type NIC struct {
	cfg   Config
	stack *tcpip.Stack
	send  func(frame wire.Frame)
	sim   *netsim.Simulator
	pool  *wire.FramePool

	queues []*Queue

	// The batched hot path's descriptor backlogs, in arrival/post order.
	// DeliverFrame/Transmit only enqueue; the poll and doorbell events
	// drain. Completion runs in this global order — not queue order — so
	// the traffic a run produces is independent of the queue count (the
	// churn invariant). rxDefer and txSpare are the drained sides of the
	// double buffers: each event swaps them in before its drain loop, so
	// over-budget leftovers and anything posted mid-drain land in the next
	// batch. pollCounts is reusable per-queue scratch.
	rxBacklog  []rxSlot
	rxDefer    []rxSlot
	txBacklog  []txSlot
	txSpare    []txSlot
	pollCounts []int

	// One poll and one doorbell event device-wide: enqueues coalesce onto
	// a pending one, the way interrupt mitigation coalesces completions in
	// a real driver.
	rxPollTimer     *netsim.Timer
	txDoorbellTimer *netsim.Timer

	// Context cache (LRU by flow+direction key), shared by all queues.
	cache ctxCache

	chaos *chaosState

	tracer *telemetry.Tracer
	reg    *telemetry.Registry
	label  string
	rxTid  string // precomputed engine track labels
	txTid  string

	// lc is the packet-lifecycle stage clock (lifecycle.go); merged is
	// the reusable scratch Stats() sums the queues into, so repeated
	// snapshots allocate nothing.
	lc     lifecycle
	merged Stats
	// rxPkt is the packet every received frame parses into: the stack keeps
	// nothing of it past Input (tcpip.Stack.Input).
	rxPkt wire.Packet
}

// New creates a NIC, wires it as the stack's device, and returns it. The
// send function transmits a serialized frame onto the link (the NIC is also
// a netsim.Endpoint for arriving frames).
func New(stack *tcpip.Stack, send func(frame wire.Frame), cfg Config) *NIC {
	if cfg.Queues <= 0 {
		cfg.Queues = 1
	}
	n := &NIC{
		cfg:   cfg,
		stack: stack,
		send:  send,
		sim:   stack.Sim(),
		pool:  cfg.Pool,
		chaos: newChaosState(cfg.Chaos),
	}
	if cfg.CtxCacheFlows > 0 {
		n.cache.init(cfg.CtxCacheFlows)
	}
	n.pollCounts = make([]int, cfg.Queues)
	n.rxPollTimer = n.sim.NewTimer(n.rxPoll)
	n.txDoorbellTimer = n.sim.NewTimer(n.txDoorbell)
	for i := 0; i < cfg.Queues; i++ {
		n.queues = append(n.queues, &Queue{
			id:     i,
			nic:    n,
			tx:     make(map[wire.FlowID]*offload.TxEngine),
			rx:     make(map[wire.FlowID]*offload.RxEngine),
			rxSeen: make(map[*offload.RxEngine]rxSeen),
		})
	}
	stack.SetDevice(n)
	return n
}

var (
	_ tcpip.NetDevice = (*NIC)(nil)
	_ netsim.Endpoint = (*NIC)(nil)
)

// NumQueues returns the number of RX/TX queue pairs.
func (n *NIC) NumQueues() int { return len(n.queues) }

// Queue returns queue i, for per-queue inspection in experiments.
func (n *NIC) Queue(i int) *Queue { return n.queues[i] }

// QueueFor returns the queue the flow steers to: RSS hashing over the
// 4-tuple, a pure function of the flow so steering is identical run to run.
func (n *NIC) QueueFor(flow wire.FlowID) *Queue {
	if len(n.queues) == 1 {
		return n.queues[0]
	}
	return n.queues[flow.Hash()%uint32(len(n.queues))]
}

// Stats returns all queues' counters merged into the whole-device view.
// The merge reuses a scratch block and SumInto's pointer path, so callers
// polling it every sampler tick never allocate.
func (n *NIC) Stats() Stats {
	n.merged = Stats{}
	for _, q := range n.queues {
		telemetry.SumInto(&n.merged, &q.Stats)
	}
	return n.merged
}

// CacheLen returns the number of flow contexts currently held in the
// shared context cache (for leak checks and experiments).
func (n *NIC) CacheLen() int { return len(n.cache.index) }

// SetTelemetry connects this NIC to the run's telemetry: per-queue counter
// blocks are registered under label.q<i>, DMA-level events trace onto the
// label track, and every offload engine attached afterwards is wired in
// too (engines attach at connection establishment, so call this right
// after building the host). Either argument may be nil.
func (n *NIC) SetTelemetry(tr *telemetry.Tracer, reg *telemetry.Registry, label string) {
	n.tracer = tr
	n.reg = reg
	n.label = label
	n.rxTid = label + ".rx"
	n.txTid = label + ".tx"
	if reg != nil {
		for _, q := range n.queues {
			reg.RegisterCounters(label+".q"+strconv.Itoa(q.id), &q.Stats)
		}
		n.lc.init(n.cfg.Model, reg, label, len(n.queues))
	}
}

// FlushTelemetry closes out per-engine time-in-state accounting. Call once
// after traffic stops, before exporting metrics.
func (n *NIC) FlushTelemetry() {
	for _, q := range n.queues {
		for _, e := range q.rx {
			q.harvestRx(e)
			e.FlushTelemetry()
		}
	}
}

// AttachTx installs the transmit offload engine for a flow (local→remote).
// A flow has at most one engine per direction, so an engine already
// attached is detached first. Stacked L5Ps offload only the outermost
// layer on transmit: NVMe-TCP over TLS attaches the TLS engine alone.
func (n *NIC) AttachTx(flow wire.FlowID, e *offload.TxEngine) {
	n.DetachTx(flow)
	e.EnableTelemetry(n.tracer, n.reg, n.txTid)
	n.QueueFor(flow).tx[flow] = e
}

// AttachRx installs the receive offload engine for a flow as seen in
// arriving packets (remote→local). An engine already attached is detached
// first, so its counters are harvested. Stacked L5Ps attach only the
// outermost engine; inner engines are fed by the outer Ops' emission hook.
func (n *NIC) AttachRx(flow wire.FlowID, e *offload.RxEngine) {
	n.DetachRx(flow)
	n.installEngineChaos(e)
	e.EnableTelemetry(n.tracer, n.reg, n.rxTid)
	n.QueueFor(flow).rx[flow] = e
}

// DetachTx removes the flow's transmit engine (l5o_destroy) and drops its
// context from the shared cache. Steering is a pure hash, so the detach
// lands on the queue the attach used.
func (n *NIC) DetachTx(flow wire.FlowID) {
	q := n.QueueFor(flow)
	delete(q.tx, flow)
	n.cache.drop(cacheKey{flow: flow})
}

// DetachRx removes the flow's receive engine, harvesting its final
// counters, and drops the flow's receive context from the shared cache.
func (n *NIC) DetachRx(flow wire.FlowID) {
	q := n.QueueFor(flow)
	if e := q.rx[flow]; e != nil {
		e.FlushTelemetry()
		q.harvestRx(e)
		delete(q.rxSeen, e)
		q.forgetTouched(e)
	}
	delete(q.rx, flow)
	n.cache.drop(cacheKey{flow: flow, rx: true})
}

// Transmit implements tcpip.NetDevice: the driver posts the packet on the
// flow's queue ring and rings (or coalesces onto) the doorbell. The whole
// frame is written into pooled frame memory now — the payload copied, the
// headers and the IPv4 checksum serialized — because the device keeps
// nothing of pkt past this call; the doorbell event runs the engines, the
// TCP checksum and everything else in a batch.
//
//simlint:hotpath
func (n *NIC) Transmit(pkt *wire.Packet) {
	q := n.QueueFor(pkt.Flow)
	frame := n.pool.Get(pkt.WireLen())
	off := pkt.PayloadOffset()
	copy(frame[off:], pkt.Payload)
	pkt.PutHeaders(frame)
	//lint:ignore hotalloc txBacklog and txSpare are retained across doorbells, so each backing array regrows to the high-water batch size once and is reused thereafter
	n.txBacklog = append(n.txBacklog, txSlot{q: q, frame: frame, flow: pkt.Flow,
		seq: pkt.Seq, payOff: off, txCycles: pkt.TxCycles})
	if !n.txDoorbellTimer.Pending() {
		n.txDoorbellTimer.Reset(0)
	}
}

// txDoorbell flushes every posted packet in one coalesced doorbell at the
// posting timestamp, in two passes over the batch, both in post order: the
// engine pass (engines mutate the ledger, the shared context cache, and
// telemetry), then the completion pass (TCP checksum over the payload as
// the engines left it, charges, traces, wire) — so the frames a run emits
// are independent of the queue count (DESIGN.md invariant 13). A Transmit
// from inside send posts to the swapped-in spare and rings its own
// doorbell.
//
//simlint:hotpath
func (n *NIC) txDoorbell() {
	m := n.cfg.Model
	lg := n.cfg.Ledger
	lcOn := n.lc.enabled
	batch := n.txBacklog
	n.txBacklog, n.txSpare = n.txSpare[:0], batch[:0]
	counts := n.pollCounts
	for i := range counts {
		counts[i] = 0
	}
	for i := range batch {
		s := &batch[i]
		q := s.q
		counts[q.id]++
		q.Stats.TxPackets++
		lg.Charge(cycles.HostDriver, cycles.Driver, m.DriverPerPacket, 0)
		s.driverCyc = m.DriverPerPacket
		var nicCycBefore, ctxBytesBefore float64
		if lcOn {
			nicCycBefore = lg.NICCycles()
			ctxBytesBefore = float64(lg.PCIeBytes(cycles.CtxDMA))
		}
		payload := s.frame[s.payOff:]
		if e := q.tx[s.flow]; e != nil && len(payload) > 0 {
			n.cacheTouch(q, cacheKey{flow: s.flow})
			before := e.Stats.RecoveryDMABytes
			recovered := e.Stats.Recoveries
			e.Process(s.seq, payload)
			if dma := e.Stats.RecoveryDMABytes - before; dma > 0 {
				// Context recovery re-read host memory over PCIe (Fig. 6)
				// and posted a special resync descriptor (§4.1).
				q.Stats.TxRecoveryDMA += dma
				lg.Charge(cycles.PCIe, cycles.CtxDMA, 0, int(dma))
			}
			if e.Stats.Recoveries > recovered {
				lg.Charge(cycles.HostDriver, cycles.Driver, m.DriverPerOffloadDescr, 0)
				s.driverCyc += m.DriverPerOffloadDescr
			}
		}
		if lcOn {
			s.nicNs = n.lc.cyclesNs(lg.NICCycles()-nicCycBefore) +
				n.lc.pcieNs(int(float64(lg.PCIeBytes(cycles.CtxDMA))-ctxBytesBefore))
		}
	}
	for qi, c := range counts {
		if c == 0 {
			continue
		}
		q := n.queues[qi]
		q.Stats.TxDoorbells++
		q.Stats.TxDoorbellPackets += uint64(c)
		if lcOn {
			n.lc.queues[qi].txBatch.Record(int64(c))
		}
	}
	for i := range batch {
		s := batch[i]
		batch[i] = txSlot{}
		s.frame.PutTCPChecksum()
		q := s.q
		q.Stats.TxBytes += uint64(len(s.frame))
		// Packet payload and descriptor cross PCIe by DMA.
		lg.Charge(cycles.PCIe, cycles.DMA, 0, len(s.frame))
		n.tracer.Instant2("dma", "dma.tx", n.label, "bytes", int64(len(s.frame)), "seq", int64(s.seq))
		if lcOn {
			lq := &n.lc.queues[q.id]
			lq.txEnqueue.Record(n.lc.cyclesNs(s.txCycles))
			lq.txDoorbell.Record(n.lc.cyclesNs(s.driverCyc) + n.lc.pcieNs(len(s.frame)))
			lq.txEngine.Record(s.nicNs)
		}
		n.send(s.frame)
	}
}

// DeliverFrame implements netsim.Endpoint: hardware steers the frame to a
// queue from a header peek (the RSS hash precedes any checksum verdict;
// frames too mangled to carry a flow park on queue 0 by convention) and
// posts it on the queue's receive ring. A polled completion event —
// scheduled once, however many frames land in the meantime — does parse,
// verification, engines, and delivery in batches.
//
//simlint:hotpath
func (n *NIC) DeliverFrame(frame wire.Frame) {
	q := n.queues[0]
	if flow, ok := wire.PeekFlow(frame); ok {
		q = n.QueueFor(flow)
	}
	// The wire stage is real virtual time, reported by the link through
	// NoteWireLatency just before this call; attribute it to the frame's
	// queue now that steering is known. Every arriving frame crossed the
	// wire, so record ahead of the stall/checksum verdicts.
	if n.lc.enabled && n.lc.pendingWireNs > 0 {
		n.lc.queues[q.id].wire.Record(n.lc.pendingWireNs)
		n.lc.pendingWireNs = 0
	}
	if n.stallDrop(q) {
		n.pool.Put(frame) // receive ring stalled: frame lost, TCP retransmits
		return
	}
	//lint:ignore hotalloc rxBacklog is retained across polls (double-buffered with rxDefer), so regrowth amortizes to the high-water arrival burst
	n.rxBacklog = append(n.rxBacklog, rxSlot{q: q, frame: frame})
	if !n.rxPollTimer.Pending() {
		n.rxPollTimer.Reset(n.cfg.RxPollDelay)
	}
}

// rxPoll is the NAPI-style completion handler: one event drains up to
// rxPollBudget frames per queue from the arrival-order backlog, and every
// effect (parse + checksum verification, stats, ledger, cache, engines,
// tracer, stack delivery, frame recycling) runs in arrival order, which
// keeps traces and metrics independent of the queue count (DESIGN.md
// invariant 13). Over-budget leftovers re-schedule the poll at the same
// timestamp.
//
//simlint:hotpath
func (n *NIC) rxPoll() {
	// Swap the double buffers first, so the next poll's backlog collects,
	// in order, this poll's over-budget leftovers and then whatever a
	// DeliverFrame from inside stack delivery posts mid-drain.
	batch := n.rxBacklog
	n.rxBacklog, n.rxDefer = n.rxDefer[:0], batch[:0]
	// Compact the batch in arrival order, capped per queue by the budget:
	// a queue that exhausts its budget parks its later frames for the next
	// poll without holding up other queues' arrivals.
	counts := n.pollCounts
	for i := range counts {
		counts[i] = 0
	}
	w := 0
	for i := range batch {
		s := batch[i]
		if counts[s.q.id] < rxPollBudget {
			counts[s.q.id]++
			batch[w] = s
			w++
		} else {
			//lint:ignore hotalloc the leftovers reuse rxDefer's retained backing array; regrowth amortizes to the worst over-budget burst
			n.rxBacklog = append(n.rxBacklog, s)
		}
	}
	for i := w; i < len(batch); i++ {
		batch[i] = rxSlot{}
	}
	batch = batch[:w]
	for qi, c := range counts {
		if c == 0 {
			continue
		}
		q := n.queues[qi]
		q.Stats.RxPolls++
		q.Stats.RxPolledFrames += uint64(c)
		if n.lc.enabled {
			n.lc.queues[qi].rxBatch.Record(int64(c))
		}
	}
	for i := range batch {
		s := batch[i]
		batch[i] = rxSlot{}
		n.rxComplete(s.q, s.frame)
		// The stack copied what it keeps (its "DMA" into socket buffer
		// memory), so the frame recycles immediately.
		n.pool.Put(s.frame)
	}
	// Fold engine completion counters once per touched engine per batch,
	// not once per packet.
	for _, q := range n.queues {
		for _, e := range q.touched {
			q.harvestRx(e)
		}
		q.touched = q.touched[:0]
	}
	if len(n.rxBacklog) > 0 && !n.rxPollTimer.Pending() {
		n.rxPollTimer.Reset(0)
	}
}

// rxComplete finishes one frame: parse and checksum verdict, DMA/driver
// charges, receive offload engines, and stack delivery.
//
//simlint:hotpath
func (n *NIC) rxComplete(q *Queue, frame wire.Frame) {
	m := n.cfg.Model
	lg := n.cfg.Ledger
	lcOn := n.lc.enabled
	pkt := &n.rxPkt
	if err := wire.ParseInto(frame, pkt); err != nil {
		q.Stats.RxBadFrames++
		if pkt.Payload == nil {
			return // unparseable
		}
		// Checksum offload flagged the frame bad; the device reports the
		// verdict and delivers anyway: the frame is DMA'd up like any other
		// and the stack validates in software. Offload engines never see
		// it — they only run over verified payload.
		q.Stats.RxPackets++
		q.Stats.RxBytes += uint64(len(frame))
		lg.Charge(cycles.PCIe, cycles.DMA, 0, len(frame))
		lg.Charge(cycles.HostDriver, cycles.Driver, m.DriverPerPacket, 0)
		n.tracer.Instant2("dma", "dma.rx.bad", n.label, "bytes", int64(len(frame)), "seq", int64(pkt.Seq))
		n.stack.Input(pkt, meta.RxChecksumBad)
		return
	}
	q.Stats.RxPackets++
	q.Stats.RxBytes += uint64(len(frame))
	if pkt.ECN == wire.ECNCE {
		q.Stats.RxCEMarks++
	}
	lg.Charge(cycles.PCIe, cycles.DMA, 0, len(frame))
	lg.Charge(cycles.HostDriver, cycles.Driver, m.DriverPerPacket, 0)
	n.tracer.Instant2("dma", "dma.rx", n.label, "bytes", int64(len(frame)), "seq", int64(pkt.Seq))

	// Lifecycle: ledger deltas split NIC-side engine + context-cache work
	// from the DMA-up and stack-delivery stages.
	var nicCycBefore, ctxBytesBefore float64
	if lcOn {
		nicCycBefore = lg.NICCycles()
		ctxBytesBefore = float64(lg.PCIeBytes(cycles.CtxDMA))
	}
	var flags meta.RxFlags
	if e := q.rx[pkt.Flow]; e != nil && len(pkt.Payload) > 0 {
		n.cacheTouch(q, cacheKey{flow: pkt.Flow, rx: true})
		flags = e.Process(pkt.Seq, pkt.Payload, false)
		q.noteTouched(e)
	}
	if lcOn {
		lq := &n.lc.queues[q.id]
		lq.rxEngine.Record(n.lc.cyclesNs(lg.NICCycles()-nicCycBefore) +
			n.lc.pcieNs(int(float64(lg.PCIeBytes(cycles.CtxDMA))-ctxBytesBefore)))
		lq.rxDMA.Record(n.lc.cyclesNs(m.DriverPerPacket) + n.lc.pcieNs(len(frame)))
		hostCycBefore := lg.HostCycles()
		n.stack.Input(pkt, flags)
		lq.rxDeliver.Record(n.lc.cyclesNs(lg.HostCycles() - hostCycBefore))
		return
	}
	n.stack.Input(pkt, flags)
}

// cacheTouch models the bounded on-NIC context cache: a miss means the
// context was evicted to host memory and must be reloaded over PCIe. The
// LRU is shared device-wide; hits, misses, and invalidations are charged
// to the queue whose flow touched it.
//
//simlint:hotpath
func (n *NIC) cacheTouch(q *Queue, k cacheKey) {
	if n.cfg.CtxCacheFlows <= 0 {
		return
	}
	if c := n.chaos; c != nil && c.cfg.CtxInvalidateProb > 0 &&
		c.rng.Float64() < c.cfg.CtxInvalidateProb {
		// Firmware hiccup: every cached context is gone at once — every
		// queue's, since the cache is device memory.
		q.Stats.CtxInvalidations++
		n.cache.reset()
	}
	if n.cache.hit(k) {
		q.Stats.CtxCacheHits++
		return
	}
	q.Stats.CtxCacheMiss++
	n.tracer.Instant1("dma", "ctx.miss", n.label, "bytes", int64(ctxBytes))
	n.cfg.Ledger.Charge(cycles.PCIe, cycles.CtxDMA, 0, ctxBytes)
	if n.cache.insert(k) {
		// Write-back of the evicted context.
		n.cfg.Ledger.Charge(cycles.PCIe, cycles.CtxDMA, 0, ctxBytes)
	}
}
