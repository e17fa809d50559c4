package offload

// Table-driven walk of the receive engine's recovery state machine:
// offloading → searching → tracking → offloading (§4.3), including the
// paths the narrative tests don't pin down one by one — resync rejection,
// tracking aborts, the degradation policy tripping into permanent
// fallback, and the chaos hooks that simulate a faulty NIC.

import (
	"testing"

	"repro/internal/meta"
)

// fsmResponder answers resync requests one packet later, in one of three
// modes: truthfully confirm, always reject, or never answer.
type fsmResponder struct {
	st    *stream
	e     *RxEngine
	mode  string // "confirm", "reject", "none"
	queue []uint32
}

// resyncFunc adapts a function to ResyncRequester.
type resyncFunc func(seq uint32)

func (f resyncFunc) Request(seq uint32) { f(seq) }

func (h *fsmResponder) request(seq uint32) {
	if h.mode == "none" {
		return
	}
	h.queue = append(h.queue, seq)
}

func (h *fsmResponder) tick() {
	for _, seq := range h.queue {
		idx, ok := h.st.boundaries[seq]
		if h.mode == "reject" {
			ok = false
		}
		h.e.ResyncResponse(seq, ok, idx)
	}
	h.queue = nil
}

func TestRxEngineFSM(t *testing.T) {
	// Message bodies chosen so that, when packet 1 (bytes [1100,1200)) is
	// lost, the search that starts in packet 2 finds message 2's header at
	// 1252 and expects the next one at 1408; losing packet 4 (which holds
	// that header) then aborts the tracking chain.
	bodies := []int{150, 90, 150, 150, 150, 150, 150, 150, 150, 150}

	cases := []struct {
		name   string
		bodies []int
		sizes  []int // packet cut sizes; nil = uniform 100-byte packets
		lose   map[int]bool
		// schedule, when set, rewrites the delivery order after lose is
		// applied — SACK-era arrival patterns (holes filled late by
		// retransmissions, pairwise reordering) rather than pure loss.
		schedule func(pkts []pkt) []pkt
		respond  string
		policy   FallbackPolicy
		chaos    RxChaos
		corrupt  bool // damage the final message's trailer
		stacked  bool // a §5.3 engine: contiguity from the feeder, not from seq
		want     string
		check    func(t *testing.T, e *RxEngine, ops *tpOps)
	}{
		{
			name:    "clean stream stays offloading",
			respond: "confirm",
			want:    "offloading",
			check: func(t *testing.T, e *RxEngine, ops *tpOps) {
				if e.Stats.ResyncRequests != 0 || e.Stats.MsgsCompleted != 10 {
					t.Errorf("stats %+v", e.Stats)
				}
			},
		},
		{
			name:    "body-only gap relocks without resync",
			bodies:  []int{250, 250, 250, 250},
			lose:    map[int]bool{1: true},
			respond: "confirm",
			want:    "offloading",
			check: func(t *testing.T, e *RxEngine, ops *tpOps) {
				if e.Stats.Relocks != 1 || e.Stats.ResyncRequests != 0 {
					t.Errorf("stats %+v", e.Stats)
				}
			},
		},
		{
			name:    "header loss: search, track, confirm, re-offload",
			lose:    map[int]bool{1: true},
			respond: "confirm",
			want:    "offloading",
			check: func(t *testing.T, e *RxEngine, ops *tpOps) {
				if e.Stats.ResyncRequests == 0 || e.Stats.ResyncConfirms == 0 {
					t.Errorf("no resync round trip: %+v", e.Stats)
				}
				if e.Stats.MsgsBlind == 0 {
					t.Error("tracked messages should complete blind")
				}
				if e.Stats.PktsOffloaded == 0 || e.Stats.PktsUnoffloaded == 0 {
					t.Errorf("expected mixed verdicts: %+v", e.Stats)
				}
			},
		},
		{
			name:    "rejected confirmation resumes searching",
			lose:    map[int]bool{1: true},
			respond: "reject",
			want:    "searching",
			check: func(t *testing.T, e *RxEngine, ops *tpOps) {
				if e.Stats.ResyncRejects == 0 {
					t.Errorf("no rejects: %+v", e.Stats)
				}
				if e.FellBack() {
					t.Error("zero policy must never fall back")
				}
			},
		},
		{
			name:    "lost packet during tracking aborts",
			lose:    map[int]bool{1: true, 4: true},
			respond: "none",
			want:    "tracking",
			check: func(t *testing.T, e *RxEngine, ops *tpOps) {
				if e.Stats.TrackingAborts == 0 {
					t.Errorf("no tracking abort: %+v", e.Stats)
				}
			},
		},
		{
			name:    "reject threshold trips permanent fallback",
			lose:    map[int]bool{1: true},
			respond: "reject",
			policy:  FallbackPolicy{MaxRecoveryFailures: 1},
			want:    "fallback",
			check: func(t *testing.T, e *RxEngine, ops *tpOps) {
				if !e.FellBack() || e.Stats.Fallbacks != 1 {
					t.Errorf("fallback not recorded: %+v", e.Stats)
				}
			},
		},
		{
			name:    "abort threshold trips permanent fallback",
			lose:    map[int]bool{1: true, 4: true},
			respond: "none",
			policy:  FallbackPolicy{MaxRecoveryFailures: 1},
			want:    "fallback",
			check: func(t *testing.T, e *RxEngine, ops *tpOps) {
				if !e.FellBack() {
					t.Errorf("no fallback: %+v", e.Stats)
				}
				if e.Stats.PktsUnoffloaded == 0 {
					t.Error("post-fallback packets must pass through unprocessed")
				}
			},
		},
		{
			name:    "corrupt trailer drops message and falls back",
			respond: "confirm",
			policy:  FallbackPolicy{FallbackOnAuthFailure: true},
			corrupt: true,
			want:    "fallback",
			check: func(t *testing.T, e *RxEngine, ops *tpOps) {
				if e.Stats.CorruptionDrops != 1 || e.Stats.MsgsFailed != 1 {
					t.Errorf("corruption not recorded: %+v", e.Stats)
				}
				if ops.failed != 1 {
					t.Errorf("ops.failed=%d", ops.failed)
				}
			},
		},
		{
			name:    "corrupt trailer without policy keeps offloading",
			respond: "confirm",
			corrupt: true,
			want:    "offloading",
			check: func(t *testing.T, e *RxEngine, ops *tpOps) {
				if e.Stats.CorruptionDrops != 1 || e.Stats.Fallbacks != 0 {
					t.Errorf("stats %+v", e.Stats)
				}
			},
		},
		{
			// Mid-flow MTU changes (§4.3): packet boundaries are not part of
			// the engine's context, so a re-segmented stream — every cut
			// moved — must not perturb a clean offload...
			name:    "mtu shrink on a clean stream is invisible",
			sizes:   append(repeatSizes(100, 4), repeatSizes(60, 300)...),
			respond: "confirm",
			want:    "offloading",
			check: func(t *testing.T, e *RxEngine, ops *tpOps) {
				if e.Stats.ResyncRequests != 0 || e.Stats.MsgsCompleted != 10 {
					t.Errorf("stats %+v", e.Stats)
				}
			},
		},
		{
			// ...and an engine recovering across a shrink must re-lock onto
			// boundaries cut at the NEW size without a spurious abort: the
			// tracked header chain lives in sequence space, not packet space.
			name:    "mtu shrink while tracking resumes without abort",
			lose:    map[int]bool{1: true},
			sizes:   append(repeatSizes(100, 3), repeatSizes(60, 300)...),
			respond: "confirm",
			want:    "offloading",
			check: func(t *testing.T, e *RxEngine, ops *tpOps) {
				if e.Stats.TrackingAborts != 0 {
					t.Errorf("spurious abort across the MTU shrink: %+v", e.Stats)
				}
				if e.Stats.ResyncConfirms == 0 || e.Stats.Resumes == 0 {
					t.Errorf("recovery did not complete: %+v", e.Stats)
				}
			},
		},
		{
			name:    "mtu grow while tracking resumes without abort",
			lose:    map[int]bool{1: true},
			sizes:   append(repeatSizes(100, 3), repeatSizes(220, 100)...),
			respond: "confirm",
			want:    "offloading",
			check: func(t *testing.T, e *RxEngine, ops *tpOps) {
				if e.Stats.TrackingAborts != 0 {
					t.Errorf("spurious abort across the MTU grow: %+v", e.Stats)
				}
				if e.Stats.ResyncConfirms == 0 || e.Stats.Resumes == 0 {
					t.Errorf("recovery did not complete: %+v", e.Stats)
				}
			},
		},
		{
			// SACK-driven recovery delivers the hole's retransmission after
			// later segments already arrived: the refill reaches the NIC as
			// a stale packet once the engine has moved past it. It must be
			// bypassed — no state change, no abort, no fallback.
			name: "sack hole refill arrives late and is bypassed",
			schedule: func(pkts []pkt) []pkt {
				// Move packet 1 (the header-bearing packet the other cases
				// lose outright) to the tail: the hole opens, recovery runs,
				// and the retransmission lands after the window drained.
				out := append([]pkt(nil), pkts[:1]...)
				out = append(out, pkts[2:]...)
				return append(out, pkts[1])
			},
			respond: "confirm",
			want:    "offloading",
			check: func(t *testing.T, e *RxEngine, ops *tpOps) {
				if e.Stats.PktsBypassed == 0 {
					t.Errorf("late refill was not bypassed: %+v", e.Stats)
				}
				if e.FellBack() || e.Stats.Fallbacks != 0 {
					t.Errorf("stale refill tripped fallback: %+v", e.Stats)
				}
				if e.Stats.Resumes == 0 {
					t.Errorf("engine never resumed offloading: %+v", e.Stats)
				}
			},
		},
		{
			// Pairwise reordering (no loss at all): each swapped pair opens a
			// one-packet gap that the very next packet fills. The engine may
			// briefly leave offloading but must re-lock and finish there
			// without ever degrading.
			name: "pairwise reordering relocks without fallback",
			schedule: func(pkts []pkt) []pkt {
				out := append([]pkt(nil), pkts...)
				for i := 2; i+1 < len(out); i += 7 {
					out[i], out[i+1] = out[i+1], out[i]
				}
				return out
			},
			respond: "confirm",
			want:    "offloading",
			check: func(t *testing.T, e *RxEngine, ops *tpOps) {
				if e.FellBack() || e.Stats.Fallbacks != 0 {
					t.Errorf("reordering tripped fallback: %+v", e.Stats)
				}
				if e.Stats.PktsBypassed == 0 {
					t.Errorf("no reordered packet was bypassed: %+v", e.Stats)
				}
				if e.Stats.PktsOffloaded == 0 {
					t.Errorf("offload never resumed between swaps: %+v", e.Stats)
				}
			},
		},
		{
			// The one thing the two kinds of engine do differently. Message 2
			// is long enough that packet 4 lies wholly inside its body while
			// the engine tracks it. A TCP-level engine knows the hole is 100
			// bytes, so the next header is still where the length says...
			name:    "gap inside a tracked body is harmless when its size is known",
			bodies:  []int{150, 90, 450, 150, 150, 150, 150},
			lose:    map[int]bool{1: true, 4: true},
			respond: "none",
			want:    "tracking",
			check: func(t *testing.T, e *RxEngine, ops *tpOps) {
				if e.Stats.TrackingAborts != 0 || e.Stats.ResyncRequests != 1 {
					t.Errorf("the tracked chain did not survive the hole: %+v", e.Stats)
				}
			},
		},
		{
			// ...a stacked engine is only told "not contiguous": the chain
			// is void and the search starts over.
			name:    "gap inside a tracked body aborts tracking when its size is unknown",
			stacked: true,
			bodies:  []int{150, 90, 450, 150, 150, 150, 150},
			lose:    map[int]bool{1: true, 4: true},
			respond: "none",
			want:    "tracking",
			check: func(t *testing.T, e *RxEngine, ops *tpOps) {
				if e.Stats.TrackingAborts != 1 || e.Stats.ResyncRequests < 2 {
					t.Errorf("tracking survived a hole of unknown size: %+v", e.Stats)
				}
			},
		},
		{
			name:    "chaos drops the resync request",
			lose:    map[int]bool{1: true},
			respond: "confirm",
			chaos:   RxChaos{DropResyncReq: func(uint32) bool { return true }},
			want:    "tracking",
			check: func(t *testing.T, e *RxEngine, ops *tpOps) {
				if e.Stats.ResyncDropped == 0 || e.Stats.ResyncConfirms != 0 {
					t.Errorf("request not dropped: %+v", e.Stats)
				}
				// With the confirmation lost, the engine tracks forever:
				// packets keep flowing to software, never offloaded.
				if e.Stats.PktsUnoffloaded == 0 {
					t.Errorf("stats %+v", e.Stats)
				}
			},
		},
		{
			name:    "chaos mangles the confirmation into a rejection",
			lose:    map[int]bool{1: true},
			respond: "confirm",
			chaos:   RxChaos{ForceReject: func(uint32) bool { return true }},
			want:    "searching",
			check: func(t *testing.T, e *RxEngine, ops *tpOps) {
				if e.Stats.ForcedRejects == 0 || e.Stats.ResyncConfirms != 0 {
					t.Errorf("no forced reject: %+v", e.Stats)
				}
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.bodies
			if b == nil {
				b = bodies
			}
			ops := &tpOps{t: t}
			st := buildStream(1000, b, 6)
			if tc.corrupt {
				st.data[len(st.data)-1] ^= 0xFF
			}
			h := &fsmResponder{st: st, mode: tc.respond}
			e := NewRxEngine(ops, 1000, resyncFunc(h.request))
			if tc.stacked {
				e = NewSparseRxEngine(ops, resyncFunc(h.request))
			}
			h.e = e
			e.SetFallbackPolicy(tc.policy)
			e.SetChaos(tc.chaos)

			sizes := tc.sizes
			if sizes == nil {
				sizes = repeatSizes(100, 100)
			}
			delivery := st.packets(sizes)
			if tc.schedule != nil {
				delivery = tc.schedule(delivery)
			}
			var sawOffloaded bool
			for i, p := range delivery {
				if tc.lose[i] {
					continue
				}
				flags := e.Process(p.seq, p.data, tc.stacked && !tc.lose[i-1])
				h.tick()
				if flags.Has(meta.TLSOffloaded) {
					sawOffloaded = true
				}
			}
			if e.State() != tc.want {
				t.Errorf("final state %q, want %q (stats %+v)", e.State(), tc.want, e.Stats)
			}
			if !sawOffloaded {
				t.Error("no packet was ever offloaded")
			}
			if tc.check != nil {
				tc.check(t, e, ops)
			}
		})
	}
}
