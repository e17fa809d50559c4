package nic

import (
	"strconv"
	"time"

	"repro/internal/cycles"
	"repro/internal/telemetry"
)

// The packet-lifecycle span layer: a per-packet stage clock through the
// hot path — host TX enqueue → doorbell (driver + frame DMA) → NIC TX
// engine → wire → RX engine/context-cache → DMA-up → stack delivery —
// recorded as per-stage latency histograms, one per queue.
//
// Virtual time only advances on the wire (the simulator runs host and NIC
// work instantaneously), so the host and device stages derive their
// nanoseconds from the calibrated cost model instead: cycles convert at
// Model.CPUHz, DMA'd bytes at Model.PCIeGbps. The wire stage is the one
// real virtual-time measurement, delivered by the link through
// netsim.WireLatencySink. The decomposition therefore answers "where
// would a wall-clock nanosecond go on the modeled machine", which is the
// per-stage pipeline view FlexTOE-style accounting gives a real TOE.
//
// When telemetry is off (SetTelemetry never called, or called with a nil
// registry) the layer is a single boolean check on the hot path and
// allocates nothing.

// LifecycleStages lists the stage histogram name prefixes in hot-path
// order. NIC label l, queue i records stage s as "<l>.<s>.q<i>"; all
// values are nanoseconds.
var LifecycleStages = []string{
	"lc.tx.enqueue_ns",  // the stack's per-packet transmit charge
	"lc.tx.doorbell_ns", // driver descriptor work + frame DMA to the device
	"lc.tx.engine_ns",   // NIC-side TX offload engine work + recovery ctx DMA
	"lc.wire_ns",        // real virtual time on the link (queueing + propagation)
	"lc.rx.engine_ns",   // NIC-side RX offload engine work + context-cache DMA
	"lc.rx.dma_ns",      // frame DMA to the host + driver reap
	"lc.rx.deliver_ns",  // host stack delivery (including work it triggers, e.g. ACKs)
}

// BatchStages lists the batch-size histogram name prefixes: how many
// frames each receive poll completed and how many packets each doorbell
// flushed, per queue (values are counts, not nanoseconds). Registered
// alongside the lifecycle stages as "<label>.<s>.q<i>".
var BatchStages = []string{
	"batch.rx_frames", // frames completed by one receive poll
	"batch.tx_pkts",   // packets flushed by one coalesced doorbell
}

// lcQueue holds one queue's resolved stage histograms, in the order of
// LifecycleStages, plus the BatchStages batch-size histograms.
type lcQueue struct {
	txEnqueue  *telemetry.Histogram
	txDoorbell *telemetry.Histogram
	txEngine   *telemetry.Histogram
	wire       *telemetry.Histogram
	rxEngine   *telemetry.Histogram
	rxDMA      *telemetry.Histogram
	rxDeliver  *telemetry.Histogram
	rxBatch    *telemetry.Histogram
	txBatch    *telemetry.Histogram
}

// lifecycle is the NIC's stage clock. Disabled (enabled=false) it is
// never consulted beyond the boolean.
type lifecycle struct {
	enabled bool
	model   *cycles.Model
	// pendingWireNs carries the link's latest NoteWireLatency sample to
	// the DeliverFrame call that immediately follows it (the simulation
	// is single-threaded, so the handoff is exact).
	pendingWireNs int64
	queues        []lcQueue
}

// init resolves every stage histogram once, so the per-packet path never
// formats names. label scopes the names to this NIC (two hosts share one
// registry), matching the "<label>.q<i>" counter registration.
func (lc *lifecycle) init(m *cycles.Model, reg *telemetry.Registry, label string, nQueues int) {
	lc.enabled = true
	lc.model = m
	lc.queues = make([]lcQueue, nQueues)
	for i := range lc.queues {
		prefix := label + "."
		suffix := ".q" + strconv.Itoa(i)
		lc.queues[i] = lcQueue{
			txEnqueue:  reg.Histogram(prefix + LifecycleStages[0] + suffix),
			txDoorbell: reg.Histogram(prefix + LifecycleStages[1] + suffix),
			txEngine:   reg.Histogram(prefix + LifecycleStages[2] + suffix),
			wire:       reg.Histogram(prefix + LifecycleStages[3] + suffix),
			rxEngine:   reg.Histogram(prefix + LifecycleStages[4] + suffix),
			rxDMA:      reg.Histogram(prefix + LifecycleStages[5] + suffix),
			rxDeliver:  reg.Histogram(prefix + LifecycleStages[6] + suffix),
			rxBatch:    reg.Histogram(prefix + BatchStages[0] + suffix),
			txBatch:    reg.Histogram(prefix + BatchStages[1] + suffix),
		}
	}
}

// cyclesNs converts modeled core cycles to nanoseconds.
func (lc *lifecycle) cyclesNs(cyc float64) int64 {
	return int64(cyc / lc.model.CPUHz * 1e9)
}

// pcieNs converts DMA'd bytes to nanoseconds at the host-interface rate.
func (lc *lifecycle) pcieNs(bytes int) int64 {
	if lc.model.PCIeGbps <= 0 {
		return 0
	}
	return int64(float64(bytes) * 8 / lc.model.PCIeGbps)
}

// NoteWireLatency implements netsim.WireLatencySink: the link reports each
// delivered frame's wire time immediately before DeliverFrame, which
// attributes it to the frame's queue.
func (n *NIC) NoteWireLatency(d time.Duration) {
	if n.lc.enabled {
		n.lc.pendingWireNs = int64(d)
	}
}
