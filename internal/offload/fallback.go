package offload

// This file implements the receive engine's graceful-degradation policy:
// the paper's guarantee (§4, §6.4) that an autonomous offload is always
// droppable — the flow keeps working through software, merely without
// acceleration. Under sustained faults (persistent resync rejections,
// repeated tracking aborts, or corruption surfacing as failed integrity
// checks) a real NIC stops burning resources on a flow it cannot hold and
// leaves it to software permanently. The policy makes that behavior
// explicit and testable.

// FallbackPolicy governs when a receive engine gives up on a flow and
// falls back to software permanently. The zero value never falls back,
// preserving the tireless-recovery behavior of the base engine.
type FallbackPolicy struct {
	// MaxRecoveryFailures is the number of consecutive failed recovery
	// attempts — resync rejections plus tracking aborts, reset whenever
	// the engine successfully resumes offloading — after which the engine
	// permanently falls back. Zero disables the limit.
	MaxRecoveryFailures int
	// FallbackOnAuthFailure falls back permanently on the first failed
	// integrity check (a corrupt message the engine positively detected,
	// or one L5P software reports via NoteAuthFailure). The corrupt
	// message itself is always rejected regardless of this setting.
	FallbackOnAuthFailure bool
}

// DefaultFallbackPolicy is what L5P layers install when the caller does
// not choose one: never stop retrying recovery (the paper's engines are
// tireless), but stop trusting the hardware for a flow after the first
// failed integrity check.
func DefaultFallbackPolicy() FallbackPolicy {
	return FallbackPolicy{FallbackOnAuthFailure: true}
}

// SetFallbackPolicy installs the degradation policy. Call before traffic.
func (e *RxEngine) SetFallbackPolicy(p FallbackPolicy) { e.policy = p }

// FellBack reports whether the engine has permanently fallen back to
// software for this flow.
func (e *RxEngine) FellBack() bool { return e.state == rxFallback }

// NoteAuthFailure tells the engine that L5P software's own integrity
// check failed for this flow (corruption the NIC did not or could not
// verify). Under FallbackOnAuthFailure the engine permanently falls back.
func (e *RxEngine) NoteAuthFailure() {
	if e.policy.FallbackOnAuthFailure {
		e.enterFallback()
	}
}

// enterFallback abandons the hardware context for good. Subsequent
// packets pass through unprocessed (software handles everything), which
// is exactly what detaching the offload would do.
func (e *RxEngine) enterFallback() {
	if e.state == rxFallback {
		return
	}
	e.breakOps()
	e.forget()
	e.pendingFallback = false
	e.setState(rxFallback) // bumps Stats.Fallbacks
}

// noteRecoveryFailure records one failed recovery attempt and reports
// whether it tripped the policy (the caller must then stop recovering).
func (e *RxEngine) noteRecoveryFailure() bool {
	e.recoveryFails++
	if e.policy.MaxRecoveryFailures > 0 && e.recoveryFails >= e.policy.MaxRecoveryFailures {
		e.enterFallback()
		return true
	}
	return false
}

// RxChaos injects NIC-internal faults into the recovery machinery for
// chaos testing: resynchronization requests that never reach software and
// confirmations the (faulty) NIC treats as rejections. Hooks draw their
// own randomness so the engine stays deterministic.
type RxChaos struct {
	// DropResyncReq, when non-nil and returning true, silently discards
	// the outgoing resync request: software never answers and the flow
	// stays unoffloaded until another candidate is found (or forever —
	// traffic still flows through software either way).
	DropResyncReq func(seq uint32) bool
	// ForceReject, when non-nil and returning true, converts a software
	// confirmation into a rejection, exercising the reject path and the
	// fallback policy.
	ForceReject func(seq uint32) bool
}

// SetChaos installs fault-injection hooks (nil hooks disable injection).
func (e *RxEngine) SetChaos(c RxChaos) { e.chaos = c }

// sendResyncReq emits a speculative-candidate request to software, unless
// chaos eats it.
func (e *RxEngine) sendResyncReq(cand uint32) {
	e.Stats.ResyncRequests++
	if e.chaos.DropResyncReq != nil && e.chaos.DropResyncReq(cand) {
		e.Stats.ResyncDropped++
		return
	}
	e.noteResyncSent(cand)
	if e.resync != nil {
		e.resync.Request(cand)
	}
}
