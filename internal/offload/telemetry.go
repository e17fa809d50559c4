package offload

import (
	"time"

	"repro/internal/telemetry"
)

// This file centralizes the engines' observability: every FSM transition
// funnels through setState, which maintains the per-state transition
// counters, the time-in-state histograms, and the trace timeline. The
// labels and histogram handles are resolved once in EnableTelemetry so the
// per-packet paths never format strings or look anything up.

// rxStateTraceName maps each FSM state to its precomputed trace-event name.
var rxStateTraceName = [...]string{"rx.offloading", "rx.searching", "rx.tracking", "rx.fallback"}

// rxStateHistName maps each FSM state to its time-in-state histogram.
var rxStateHistName = [...]string{
	"offload.rx.time_offloading_ns",
	"offload.rx.time_searching_ns",
	"offload.rx.time_tracking_ns",
	"offload.rx.time_fallback_ns",
}

// EnableTelemetry hooks the receive engine into the run's tracer and
// registry under the given track label: FSM transitions become trace
// events, time spent in each state and resync round-trip latency feed
// histograms. Call before traffic; either argument may be nil.
func (e *RxEngine) EnableTelemetry(tr *telemetry.Tracer, reg *telemetry.Registry, tid string) {
	e.tr = tr
	e.traceTid = tid
	e.stateSince = tr.Now()
	if reg != nil {
		for s := range e.stateHist {
			e.stateHist[s] = reg.Histogram(rxStateHistName[s])
		}
		e.resyncHist = reg.Histogram("offload.rx.resync_latency_ns")
		e.realignHist = reg.Histogram("offload.rx.realign_latency_ns")
		e.oosHist = reg.Histogram("offload.rx.oos_episode_pkts")
		e.confirmLagHist = reg.Histogram("offload.rx.resync_confirm_lag_ns")
	}
}

// EnableTelemetry hooks the transmit engine into the run's tracer and
// registry: context recoveries (the DMA replays of Fig. 6) become trace
// events, and each recovery's replayed byte count feeds a histogram —
// the distribution behind the Stats.RecoveryDMABytes total, so a few
// huge message-prefix replays are distinguishable from many small
// forward-gap ones. Either argument may be nil.
func (e *TxEngine) EnableTelemetry(tr *telemetry.Tracer, reg *telemetry.Registry, tid string) {
	e.tr = tr
	e.traceTid = tid
	if reg != nil {
		e.recoveryHist = reg.Histogram("offload.tx.recovery_dma_bytes")
	}
}

// setState is the single place receive-FSM transitions happen. It bumps
// the transition counter for the state entered (in the attached queue's
// counters too), closes the time-in-state histogram for the state left,
// and emits a trace event.
func (e *RxEngine) setState(s rxState) {
	if s == e.state {
		return
	}
	switch s {
	case rxOffloading:
		e.Stats.Resumes++
	case rxSearching:
		e.Stats.EnterSearching++
	case rxTracking:
		e.Stats.EnterTracking++
	case rxFallback:
		e.Stats.Fallbacks++
	}
	e.queue.noteState(s)
	if e.tr.Enabled() {
		now := e.tr.Now()
		e.stateHist[e.state].Record(int64(now - e.stateSince))
		e.stateSince = now
		e.tr.Instant1("fsm", rxStateTraceName[s], e.traceTid, "from", int64(e.state))
		// Boundary-realignment latency: virtual time from losing packet/
		// message alignment (leaving offloading) to regaining it (the
		// Resume). This is the paper's §4.3 recovery cost end to end —
		// search, resync round trip, and tracking — as one number.
		if e.state == rxOffloading {
			e.desyncAt = now
		} else if s == rxOffloading {
			e.realignHist.Record(int64(now - e.desyncAt))
			// OOS-episode length: how many packets software had to carry
			// between losing the offload and this resume.
			e.oosHist.Record(int64(e.oosPkts))
		}
	}
	if s == rxOffloading {
		e.oosPkts = 0
	}
	e.state = s
}

// noteState counts a transition into s in the queue's counters; a nil
// block (an engine attached to no device) counts nothing.
func (q *RxQueueStats) noteState(s rxState) {
	if q == nil {
		return
	}
	switch s {
	case rxOffloading:
		q.RxResumes++
	case rxSearching:
		q.RxSearches++
	case rxTracking:
		q.RxTracks++
	case rxFallback:
		q.RxFallbacks++
	}
}

// FlushTelemetry closes out the time-in-state histogram for the state the
// engine ends the run in. Experiments call it after traffic stops so
// long-lived terminal states (offloading, fallback) are represented.
func (e *RxEngine) FlushTelemetry() {
	if !e.tr.Enabled() {
		return
	}
	now := e.tr.Now()
	e.stateHist[e.state].Record(int64(now - e.stateSince))
	e.stateSince = now
}

// noteResyncSent records the outgoing request on the timeline and stamps
// the departure time for the round-trip latency histogram.
func (e *RxEngine) noteResyncSent(cand uint32) {
	if !e.tr.Enabled() {
		return
	}
	e.resyncSentAt = e.tr.Now()
	e.tr.Instant1("resync", "resync.req", e.traceTid, "seq", int64(cand))
}

// noteResyncAnswer records software's verdict; confirmations also record
// the request→response round trip.
func (e *RxEngine) noteResyncAnswer(seq uint32, ok bool) {
	if !e.tr.Enabled() {
		return
	}
	if ok {
		now := e.tr.Now()
		e.resyncHist.Record(int64(now - e.resyncSentAt))
		// Confirmation lag: virtual time from losing the offload to
		// software confirming the candidate — the slice of the realignment
		// the resync round trip is responsible for.
		e.confirmLagHist.Record(int64(now - e.desyncAt))
		e.tr.Instant1("resync", "resync.confirm", e.traceTid, "seq", int64(seq))
	} else {
		e.tr.Instant1("resync", "resync.reject", e.traceTid, "seq", int64(seq))
	}
}

// telemetryState is the telemetry plumbing embedded in RxEngine.
type telemetryState struct {
	tr           *telemetry.Tracer
	traceTid     string
	stateSince   time.Duration
	resyncSentAt time.Duration
	desyncAt     time.Duration
	oosPkts      uint64 // packets carried by software this OOS episode
	stateHist    [4]*telemetry.Histogram
	resyncHist   *telemetry.Histogram
	realignHist  *telemetry.Histogram
	// oosHist samples oosPkts at each resume; confirmLagHist samples
	// desync→resync-confirmation virtual time.
	oosHist        *telemetry.Histogram
	confirmLagHist *telemetry.Histogram
}

// txTelemetryState is the telemetry plumbing embedded in TxEngine.
type txTelemetryState struct {
	tr       *telemetry.Tracer
	traceTid string
	// recoveryHist samples bytes DMA-replayed per recovery event
	// (Record on nil is a no-op, so the disabled path stays free).
	recoveryHist *telemetry.Histogram
}
