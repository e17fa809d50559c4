package nic

import (
	"math/rand"

	"repro/internal/offload"
)

// ChaosConfig injects faults inside the NIC itself — the failure modes a
// link-level fault model cannot produce: receive descriptor rings that
// briefly run dry, context caches wiped by firmware resets, and resync
// traffic between the engine and the driver going missing or wrong. All
// draws come from one generator seeded by Seed, so a chaos run is exactly
// reproducible.
type ChaosConfig struct {
	// Seed seeds the NIC's fault generator.
	Seed int64
	// CtxInvalidateProb is the per-context-access probability that the
	// whole on-NIC context cache is invalidated (as by a firmware reset),
	// forcing every flow to reload over PCIe. Only meaningful with a
	// bounded cache (Config.CtxCacheFlows > 0).
	CtxInvalidateProb float64
	// RxStallProb is the per-frame probability that the receive ring
	// stalls: this frame and the next rxStallFrames-1 are dropped as if
	// no descriptors were posted. The stack sees it as loss and recovers
	// through retransmission.
	RxStallProb float64
	// ResyncDropProb is the probability an engine's resync request is
	// lost before reaching L5P software (the confirmation never comes).
	ResyncDropProb float64
	// ResyncRejectProb is the probability a software confirmation is
	// mangled into a rejection, feeding the engine's fallback policy.
	ResyncRejectProb float64
}

// rxStallFrames is how many frames one receive-ring stall swallows.
const rxStallFrames = 4

// chaosState is the NIC's live fault-injection state.
type chaosState struct {
	cfg       ChaosConfig
	rng       *rand.Rand
	stallLeft int
}

func newChaosState(cfg *ChaosConfig) *chaosState {
	if cfg == nil {
		return nil
	}
	return &chaosState{cfg: *cfg, rng: rand.New(rand.NewSource(cfg.Seed + 11))}
}

// stallDrop reports whether this arriving frame falls into a ring stall,
// updating the stall window and counters. The stall window is device-wide
// (one seeded generator, one descriptor shortage) but the drop is counted
// on the queue the frame steered to.
func (n *NIC) stallDrop(q *Queue) bool {
	c := n.chaos
	if c == nil || c.cfg.RxStallProb <= 0 {
		return false
	}
	if c.stallLeft > 0 {
		c.stallLeft--
		q.Stats.RxRingStallDrops++
		return true
	}
	if c.rng.Float64() < c.cfg.RxStallProb {
		q.Stats.RxRingStalls++
		q.Stats.RxRingStallDrops++
		c.stallLeft = rxStallFrames - 1
		return true
	}
	return false
}

// installEngineChaos wires the resync fault hooks into a freshly attached
// receive engine.
func (n *NIC) installEngineChaos(e *offload.RxEngine) {
	c := n.chaos
	if c == nil || (c.cfg.ResyncDropProb <= 0 && c.cfg.ResyncRejectProb <= 0) {
		return
	}
	e.SetChaos(offload.RxChaos{
		DropResyncReq: func(uint32) bool {
			return c.cfg.ResyncDropProb > 0 && c.rng.Float64() < c.cfg.ResyncDropProb
		},
		ForceReject: func(uint32) bool {
			return c.cfg.ResyncRejectProb > 0 && c.rng.Float64() < c.cfg.ResyncRejectProb
		},
	})
}

// rxSeen snapshots the per-engine counters already folded into nic.Stats,
// so repeated harvests only add deltas.
type rxSeen struct {
	fallbacks, corruptionDrops uint64
	searches, tracks, resumes  uint64
}

// harvestRx folds an engine's degradation and FSM-transition counters into
// the stats of the queue running it. Called after each Process and at
// detach, it catches increments that happen between packets too (e.g. a
// fallback tripped by a resync response).
func (q *Queue) harvestRx(e *offload.RxEngine) {
	seen := q.rxSeen[e]
	if d := e.Stats.Fallbacks - seen.fallbacks; d > 0 {
		q.Stats.RxFallbacks += d
	}
	if d := e.Stats.CorruptionDrops - seen.corruptionDrops; d > 0 {
		q.Stats.RxCorruptionDrops += d
	}
	if d := e.Stats.EnterSearching - seen.searches; d > 0 {
		q.Stats.RxSearches += d
	}
	if d := e.Stats.EnterTracking - seen.tracks; d > 0 {
		q.Stats.RxTracks += d
	}
	if d := e.Stats.Resumes - seen.resumes; d > 0 {
		q.Stats.RxResumes += d
	}
	q.rxSeen[e] = rxSeen{
		fallbacks:       e.Stats.Fallbacks,
		corruptionDrops: e.Stats.CorruptionDrops,
		searches:        e.Stats.EnterSearching,
		tracks:          e.Stats.EnterTracking,
		resumes:         e.Stats.Resumes,
	}
}
