// Package offload implements the paper's core contribution: the generic
// autonomous NIC offload engine that processes L5P messages inside the NIC
// transparently to the software TCP stack (§3–§4).
//
// An engine is per flow and per direction. It keeps the constant-size
// hardware context of §4.1 — the next expected sequence number, the current
// message's type/length/offset, and L5P state such as cipher streams — and
// drives one of two state machines:
//
//   - Transmit (TxEngine): packets from the stack are usually in sequence;
//     the engine walks message boundaries and lets the L5P-specific Ops
//     transform bytes in place (encrypt, fill CRC fields). An
//     out-of-sequence packet (retransmission) triggers driver-led context
//     recovery: an upcall fetches the enclosing message's start and index
//     from L5P software, and the engine replays the message prefix by
//     DMA-reading it from host memory (Fig. 6), charging the PCIe ledger.
//
//   - Receive (RxEngine): in-sequence packets are processed and flagged;
//     out-of-sequence packets trigger either a deterministic re-lock onto
//     the next message boundary (when the boundary is visible in the
//     arriving packet — Fig. 8b) or the hardware-driven recovery of Fig. 7:
//     speculative magic-pattern search, software confirmation via
//     l5o_resync_rx_req/resp, length-based tracking, and resumption at the
//     next message-and-packet boundary (Fig. 8c).
//
// The engine is byte-exact: Ops implementations really encrypt, decrypt,
// digest, and place bytes, so end-to-end tests can assert that offloaded
// and non-offloaded runs deliver identical application data.
package offload

import (
	"fmt"

	"repro/internal/meta"
)

// MsgLayout describes one L5P message's on-wire shape. Body length is
// Total - Header - Trailer.
type MsgLayout struct {
	// Total is the full message length including header and trailer.
	Total int
	// Header is the message header length.
	Header int
	// Trailer is the trailing integrity field length (ICV, CRC), possibly
	// zero.
	Trailer int
}

func (l MsgLayout) valid(headerLen int) bool {
	return l.Header == headerLen && l.Trailer >= 0 &&
		l.Total >= l.Header+l.Trailer
}

// RxOps is the L5P-specific receive-side processing an engine drives:
// TLS record decryption/authentication or NVMe-TCP CRC verification and
// direct data placement.
type RxOps interface {
	// HeaderLen is the fixed L5P message header size.
	HeaderLen() int
	// ParseHeader validates a complete header — the "magic pattern" check
	// of §3.3 — and returns the message layout. ok=false means the bytes
	// cannot be a message header.
	ParseHeader(hdr []byte) (MsgLayout, bool)
	// BeginMessage starts in-order processing of a message whose header
	// was seen in sequence. msgIndex counts messages since offload
	// creation (the "number of previous messages" the dynamic state may
	// depend on, §3.2).
	BeginMessage(layout MsgLayout, hdr []byte, msgIndex uint64)
	// ResumeMessage starts processing a message whose first `skip` body
	// bytes were never seen by the NIC (Fig. 8b: the packet containing the
	// header is not offloaded). Integrity checking is impossible; the Ops
	// must process the remainder without it.
	ResumeMessage(layout MsgLayout, hdr []byte, msgIndex uint64, skip int)
	// Body processes in-sequence body bytes (off is the offset within the
	// body region; seq is the wire sequence of data's first byte),
	// transforming data in place if the offload does so.
	Body(seq uint32, data []byte, off int)
	// Trailer consumes trailer bytes from the wire (off within trailer).
	Trailer(seq uint32, data []byte, off int)
	// EndMessage completes the current message and reports whether its
	// integrity check passed (true when the check was skipped).
	EndMessage() bool
	// AbortMessage discards the in-flight message state.
	AbortMessage()
	// NoteDiscontinuity tells the Ops that bytes were skipped (a relock,
	// search, or blind resumption): stacked consumers of the processed
	// byte stream (§5.3) must treat the next emission as discontiguous.
	NoteDiscontinuity()
	// PacketVerdict translates the engine's per-packet outcome into flag
	// bits for the SKB: processed says the engine advanced over payload in
	// this packet; checksOK says no integrity check that completed within
	// this packet failed.
	PacketVerdict(processed, checksOK bool) meta.RxFlags
}

// RxStats counts receive-engine events for the experiments of §6.4.
type RxStats struct {
	PktsOffloaded   uint64 // processed fully in sequence
	PktsBypassed    uint64 // "past" packets (retransmitted duplicates)
	PktsUnoffloaded uint64 // out-of-sequence or processed while recovering
	MsgsCompleted   uint64
	MsgsFailed      uint64 // integrity check failed
	MsgsBlind       uint64 // resumed mid-message, check skipped
	Relocks         uint64 // deterministic boundary re-locks (Fig. 8b)
	ResyncRequests  uint64 // speculative header confirmations requested
	ResyncConfirms  uint64
	ResyncRejects   uint64
	TrackingAborts  uint64 // bad magic while tracking (Fig. 7 d1)
	CorruptionDrops uint64 // messages rejected for failed integrity checks
	Fallbacks       uint64 // permanent falls back to software (0 or 1)
	ResyncDropped   uint64 // chaos: resync requests lost inside the NIC
	ForcedRejects   uint64 // chaos: confirmations treated as rejections
	EnterSearching  uint64 // transitions into the searching state
	EnterTracking   uint64 // transitions into the tracking state
	Resumes         uint64 // transitions back to offloading after recovery
}

// RxQueueStats is the block of receive-engine counters a device queue
// keeps for the engines attached to it (nic.Stats embeds it). An attached
// engine adds to it at the moment it bumps the matching RxStats counter.
type RxQueueStats struct {
	RxFallbacks       uint64 // flows whose rx engine fell back to software
	RxCorruptionDrops uint64 // messages rx engines rejected as corrupt

	// FSM transition counters (Fig. 7): how often flows lost sync, how
	// often they entered candidate tracking, and how often they resumed
	// offloading.
	RxSearches uint64
	RxTracks   uint64
	RxResumes  uint64
}

type rxState int

const (
	rxOffloading rxState = iota
	rxSearching
	rxTracking
	rxFallback // permanent software fallback (degradation policy tripped)
)

// rxStateNames names every FSM state, indexed by rxState. Keeping the
// names in one table (alongside rxStateTraceName and rxStateHistName in
// telemetry.go) guarantees State(), traces, and histograms agree on what
// each state — fallback included — is called.
var rxStateNames = [...]string{"offloading", "searching", "tracking", "fallback"}

func (s rxState) String() string {
	if s >= 0 && int(s) < len(rxStateNames) {
		return rxStateNames[s]
	}
	return fmt.Sprintf("rxState(%d)", int(s))
}

// RxEngine is the receive-side hardware context and state machine for one
// flow. It is not safe for concurrent use (the simulation is
// single-threaded, as is a NIC pipeline per flow).
type RxEngine struct {
	ops RxOps
	// resync takes speculative header sequence numbers to L5P software
	// (l5o_resync_rx_req through the driver, §4.1). May be nil if recovery
	// is disabled.
	resync ResyncRequester
	// queue is the counter block of the device queue the engine is
	// attached to (CountInto); nil while it is attached to none.
	queue *RxQueueStats

	state rxState
	// expected is the sequence cursor: the byte after the last packet the
	// context consumed, in every state. cur is the message cursor at that
	// byte — the Ops' position while offloading, the speculated chain's
	// while tracking (msgIndex then counts from the candidate).
	expected uint32
	cur      msgCursor

	// Searching: tail keeps the last HeaderLen-1 bytes (in a buffer with
	// room for as many again, the seam search scans) so patterns split
	// across in-sequence packets are still found (§4.3).
	tail    []byte
	tailSeq uint32

	// Tracking. The engine's other flags follow these two booleans so
	// that all of them share one word: the engine sits in a
	// per-connection context whose size class connection churn pays for
	// (TestRxContextSizeClass in ktls and nvmetcp).
	candidateSeq uint32
	awaitingResp bool
	confirmed    bool

	// noRecovery disables all resynchronization (ablation: once the
	// context desynchronizes, the flow is never offloaded again).
	noRecovery bool
	// sparse marks a stacked engine (§5.3) whose input coordinates have
	// holes where the enclosing protocol's framing was skipped: length
	// arithmetic over sequence numbers is invalid, so contiguity comes
	// only from the feeder's flag. Only gapBefore reads it.
	sparse bool
	virgin bool // no input consumed yet (sparse engines self-anchor)
	// consuming is set while Process runs; an answer that arrives then —
	// from inside the resync upcall — waits in latched until it ends.
	consuming       bool
	pendingFallback bool // integrity failure seen mid-packet (fallback.go)

	confirmedIdx uint64 // msgIndex at candidateSeq, from the confirmation
	latched      struct {
		msgIndex    uint64
		seq         uint32
		pending, ok bool
	}

	// Degradation policy (fallback.go).
	policy        FallbackPolicy
	recoveryFails int // consecutive failed recovery attempts
	chaos         RxChaos

	telemetryState

	// Stats is exported for experiments; treat as read-only.
	Stats RxStats
}

// ResyncRequester is the L5P software end of receive resynchronization
// (§4.3): Request takes the engine's guess that a message header starts at
// seq (the l5o_resync_rx_req upcall). An owner that already is one — an
// l5p.ResyncMailbox inside the connection — is handed over as it is, so
// attaching an engine binds no closure.
type ResyncRequester interface {
	Request(seq uint32)
}

// NewRxEngine creates a receive engine starting at startSeq, which must be
// an L5P message boundary (l5o_create's tcpsn, §4.1). resync takes
// speculative resync requests to L5P software; it may be nil, in which case
// the engine can only recover deterministically.
func NewRxEngine(ops RxOps, startSeq uint32, resync ResyncRequester) *RxEngine {
	e := new(RxEngine)
	e.Init(ops, startSeq, resync)
	return e
}

// Init is NewRxEngine in place, for an engine held inside a larger flow
// context (one allocation for the whole context, §4.1). It overwrites
// everything e held, so e must not be attached to a device.
func (e *RxEngine) Init(ops RxOps, startSeq uint32, resync ResyncRequester) {
	*e = RxEngine{ops: ops, resync: resync, expected: startSeq, cur: newCursor(ops)}
}

// NewSparseRxEngine creates a receive engine for a stacked L5P (§5.3): its
// input is the byte stream emitted by an enclosing offload engine (e.g.
// TLS record bodies), whose wire coordinates skip the enclosing framing.
// The engine trusts the feeder's contiguity flag, never predicts message
// positions across input gaps, and always recovers through the speculative
// search + software confirmation path.
func NewSparseRxEngine(ops RxOps, resync ResyncRequester) *RxEngine {
	e := new(RxEngine)
	e.InitSparse(ops, resync)
	return e
}

// InitSparse is NewSparseRxEngine in place, as Init is NewRxEngine.
func (e *RxEngine) InitSparse(ops RxOps, resync ResyncRequester) {
	*e = RxEngine{ops: ops, resync: resync, cur: newCursor(ops), sparse: true, virgin: true}
}

// gapUnknown is the gap before an emission a stacked engine's feeder did
// not vouch for: larger than any message, so no length arithmetic spans it.
const gapUnknown = int(^uint(0) >> 1)

// gapBefore is the front end, and all the two kinds of engine differ by: it
// turns a packet's coordinates into the number of stream bytes missing
// between the sequence cursor and the packet. A TCP-level engine knows it
// from sequence arithmetic (negative: the packet starts in bytes already
// consumed). A stacked engine's wire coordinates are valid only within one
// emission — the enclosing framing leaves holes between them — so it takes
// the feeder's word for "none" and otherwise cannot know. A gap of known
// size is what permits the deterministic re-lock of Fig. 8b and lets
// tracking survive a loss inside a message body; an unknown one always
// goes through speculative search and confirmation.
func (e *RxEngine) gapBefore(seq uint32, contiguous bool) int {
	if !e.sparse {
		return seqSub(seq, e.expected)
	}
	first := e.virgin
	e.virgin = false
	e.expected = seq
	if contiguous || first {
		return 0
	}
	return gapUnknown
}

// DisableRecovery turns off both deterministic re-locking and speculative
// resynchronization: after the first out-of-sequence packet the engine
// stays silent forever. Used by the recovery ablation (DESIGN.md).
func (e *RxEngine) DisableRecovery() { e.noRecovery = true }

// CountInto makes the engine add its FSM transitions and corruption drops
// to q, the counters of the device queue it is attached to, from now on;
// nil stops it. A device calls it at attach and detach.
func (e *RxEngine) CountInto(q *RxQueueStats) { e.queue = q }

// State returns the current FSM state name (for tests and debugging).
func (e *RxEngine) State() string { return e.state.String() }

func seqSub(a, b uint32) int { return int(int32(a - b)) }

// Process runs the engine over one packet's payload, transforming it in
// place where the offload dictates, and returns the packet's verdict flags.
// contiguous forces in-sequence treatment for stacked engines whose feeder
// skips enclosing-protocol framing bytes (§5.3); TCP-level callers pass
// false and let the engine compare seq against its context.
func (e *RxEngine) Process(seq uint32, data []byte, contiguous bool) meta.RxFlags {
	if len(data) == 0 {
		return 0
	}
	if e.state == rxFallback {
		// Permanently degraded: software handles everything.
		e.Stats.PktsUnoffloaded++
		return e.ops.PacketVerdict(false, true)
	}
	gap := e.gapBefore(seq, contiguous)
	if gap < 0 {
		// Retransmitted bytes (TCP-level only). What they are worth depends
		// on the state, and each line is pinned by the committed goldens:
		switch {
		case e.state == rxSearching:
			// A candidate header is as good in old bytes as in new ones:
			// scan the whole packet, as after any discontinuity.
			gap = gapUnknown
		case e.state == rxOffloading:
			// Fig. 8a, and the straddling case with it: hardware resumes
			// only on packet boundaries, so even the new part is bypassed.
			e.Stats.PktsBypassed++
			return e.ops.PacketVerdict(false, true)
		case -gap >= len(data):
			// Tracking follows lengths, not content: nothing new here.
			e.Stats.PktsUnoffloaded++
			e.oosPkts++
			return e.ops.PacketVerdict(false, true)
		default:
			seq, data, gap = e.expected, data[-gap:], 0
		}
	}
	inSeq := e.state == rxOffloading && gap == 0
	var flags meta.RxFlags
	e.consuming = true
	if inSeq {
		flags = e.processInSeq(data)
	} else {
		e.processOoS(seq, data, gap)
	}
	e.consuming = false
	if a := &e.latched; a.pending {
		a.pending = false
		e.ResyncResponse(a.seq, a.ok, a.msgIndex)
	} else {
		e.tryResume()
	}
	if !inSeq {
		// The packet is flagged last, after whatever a resume told the Ops.
		flags = e.ops.PacketVerdict(false, true)
	}
	return flags
}

// processInSeq walks message regions across the packet payload.
func (e *RxEngine) processInSeq(data []byte) meta.RxFlags {
	e.Stats.PktsOffloaded++
	checksOK := true
	c := &e.cur
	seq := e.expected
	e.expected += uint32(len(data))
	for len(data) > 0 {
		r, n, off, end := c.step(data)
		switch r {
		case regHeader:
			if c.inMsg {
				e.ops.BeginMessage(c.layout, c.header(), c.msgIndex)
			}
		case regBody:
			e.ops.Body(seq, data[:n], off)
		case regTrailer:
			e.ops.Trailer(seq, data[:n], off)
		case regBadHeader:
			// The stream under us is not what we thought: lose sync and
			// fall into speculative search over what follows the header.
			verdict := e.ops.PacketVerdict(true, checksOK)
			if e.pendingFallback {
				e.enterFallback()
			} else {
				e.enterSearching()
				e.recoverOver(seq+uint32(n), data[n:], false)
			}
			return verdict
		}
		if end {
			if e.ops.EndMessage() {
				e.Stats.MsgsCompleted++
			} else {
				// Integrity failure: the message is corrupt. It is flagged
				// (not delivered as good bytes) and, under the policy, the
				// flow degrades to software permanently.
				e.Stats.MsgsFailed++
				e.Stats.CorruptionDrops++
				if e.queue != nil {
					e.queue.RxCorruptionDrops++
				}
				checksOK = false
				if e.policy.FallbackOnAuthFailure {
					e.pendingFallback = true
				}
			}
		}
		seq += uint32(n)
		data = data[n:]
	}
	verdict := e.ops.PacketVerdict(true, checksOK)
	if e.pendingFallback {
		e.enterFallback()
	}
	return verdict
}

// processOoS handles every packet that is not offloaded: one that does not
// continue the context while offloading (§4.3 and Fig. 8), and any packet
// while searching or tracking (Fig. 7). gap is never negative here.
func (e *RxEngine) processOoS(seq uint32, data []byte, gap int) {
	e.Stats.PktsUnoffloaded++
	e.oosPkts++
	c := &e.cur
	// The current message's length says where the next header is (§4.3). A
	// hole of known size that stays inside the message leaves that true;
	// any other hole — past the message's end, in the middle of a header,
	// of unknown size — may have swallowed a header.
	harmless := gap == 0 || (c.inMsg && gap <= c.left())
	switch e.state {
	case rxOffloading:
		if !harmless || e.noRecovery {
			e.enterSearching() // with noRecovery a dead state: nothing is ever scanned
			break
		}
		if gap+len(data) <= c.left() {
			// The packet lies entirely inside the current message: ignore
			// it; the context still expects the retransmission.
			return
		}
		// The next message boundary is inside (or at the start of) this
		// packet: deterministic re-lock (Fig. 8b). The packet itself is not
		// offloaded, but the context is updated from it — the abandoned
		// message still counts, and whatever message the packet ends in is
		// resumed without its prefix.
		e.Stats.Relocks++
		e.breakOps()
		c.msgOff += gap
		if _, ok := c.skim(data); ok {
			e.expected = seq + uint32(len(data))
			e.rejoin()
			return
		}
		e.enterSearching() // not a header where one had to be: scan the packet
	case rxTracking:
		if harmless {
			c.msgOff += gap
		} else if !e.abortTracking() {
			return
		}
	}
	e.recoverOver(seq, data, gap == 0)
	e.expected = seq + uint32(len(data))
}

// recoverOver runs the recovery states of Fig. 7 over an unoffloaded
// packet's bytes: searching scans for a candidate header, tracking follows
// the message chain from it, and a tracked header that fails the check
// sends what is left of the packet back to searching (d1).
func (e *RxEngine) recoverOver(seq uint32, data []byte, contig bool) {
	for {
		if e.state == rxTracking {
			rest, ok := e.cur.skim(data)
			if ok || !e.abortTracking() {
				return
			}
			seq, data, contig = seq+uint32(len(data)-len(rest)), rest, false
		}
		if e.noRecovery {
			return
		}
		used := e.search(seq, data, contig)
		if used < 0 {
			return
		}
		seq, data = seq+uint32(used), data[used:]
	}
}

// search scans packet payload for the L5P magic pattern (Fig. 7 searching
// state). contig says the packet continues the previous one, so a pattern
// split across the two is found in the kept tail plus this packet. On a hit
// the header becomes the candidate (lock) and search returns how many bytes
// of data it reached through; -1 otherwise.
func (e *RxEngine) search(seq uint32, data []byte, contig bool) int {
	c := &e.cur
	if e.tail == nil {
		e.tail = make([]byte, 0, 2*(c.hdrLen-1))
	}
	if !contig {
		e.tail = e.tail[:0]
	}
	// Headers that begin in the tail are parsed from the seam: the tail
	// followed by the first HeaderLen-1 bytes of data. A stacked engine's
	// tail comes from an earlier emission, whose wire coordinates need not
	// abut this one's, hence tailSeq; a header's first byte is a real wire
	// position either way, which is what software's answer is matched on.
	t, h := len(e.tail), c.hdrLen
	seam := append(e.tail, data[:min(h-1, len(data))]...)
	if i, layout := c.find(seam); i >= 0 && i < t {
		e.lock(e.tailSeq+uint32(i), seam[i:i+h], layout)
		return i + h - t
	}
	if i, layout := c.find(data); i >= 0 {
		e.lock(seq+uint32(i), data[i:i+h], layout)
		return i + h
	}
	if keep := h - 1; len(data) >= keep {
		e.tailSeq = seq + uint32(len(data)-keep)
		e.tail = append(e.tail[:0], data[len(data)-keep:]...)
	} else {
		// The seam holds all of data: keep its end.
		if t == 0 {
			e.tailSeq = seq
		}
		drop := max(0, len(seam)-keep)
		e.tailSeq += uint32(drop)
		e.tail = append(e.tail[:0], seam[drop:]...)
	}
	return -1
}

// lock takes the header found at sequence number cand as the candidate: the
// cursor is put behind it, software is asked to confirm it
// (l5o_resync_rx_req), and the engine starts tracking.
func (e *RxEngine) lock(cand uint32, hdr []byte, layout MsgLayout) {
	c := &e.cur
	e.setState(rxTracking)
	e.candidateSeq, e.awaitingResp = cand, true
	c.reset(0)
	c.hdrN = copy(c.hdr[:], hdr)
	c.layout, c.inMsg, c.msgOff = layout, true, c.hdrLen
	e.sendResyncReq(cand)
}

// breakOps tells the Ops their byte stream breaks here and drops the
// message they were in the middle of.
func (e *RxEngine) breakOps() {
	e.ops.NoteDiscontinuity()
	if e.state == rxOffloading && e.cur.inMsg {
		e.ops.AbortMessage()
	}
}

// enterSearching abandons the offloading context (Fig. 7 a).
func (e *RxEngine) enterSearching() {
	e.breakOps()
	e.restartSearch()
}

// restartSearch is the one way back to the searching state, from anywhere:
// nothing the cursor followed, no kept tail, no candidate, no answer owed.
func (e *RxEngine) restartSearch() {
	e.forget()
	e.setState(rxSearching)
}

// forget clears the recovery context.
func (e *RxEngine) forget() {
	e.cur.reset(0)
	e.tail = e.tail[:0]
	e.awaitingResp = false
	e.confirmed = false
}

// abortTracking gives up a tracked chain that can no longer be verified
// (Fig. 7 d1) and reports whether recovery goes on: false means the
// degradation policy tripped and the engine fell back for good.
func (e *RxEngine) abortTracking() bool {
	e.Stats.TrackingAborts++
	if e.noteRecoveryFailure() {
		return false
	}
	e.restartSearch()
	return true
}

// rejoin makes the cursor's position the Ops' position after bytes were
// walked without them. Between messages or mid-header there is nothing to
// tell; mid-message, the Ops resume the message without the prefix the
// cursor skipped, and without its integrity check.
func (e *RxEngine) rejoin() {
	c := &e.cur
	c.settle()
	if !c.inMsg {
		return
	}
	e.Stats.MsgsBlind++
	// A skip that reaches into the trailer skipped the whole body.
	skip := min(c.msgOff, c.layout.Total-c.layout.Trailer) - c.layout.Header
	e.ops.ResumeMessage(c.layout, c.header(), c.msgIndex, skip)
}

// tryResume is the one transition back to offloading (Fig. 7 d2), taken
// between packets only: at the end of Process, and from a ResyncResponse
// that arrives when no packet is being consumed. It needs a confirmed
// candidate and a cursor that is not in the middle of a header. Offloading
// resumes with the next packet; if that starts mid-message, the enclosing
// message (whose header was parsed while tracking) is blind-resumed so that
// the *following* message is fully offloaded.
func (e *RxEngine) tryResume() {
	if e.state != rxTracking || !e.confirmed || e.cur.midHeader() {
		return
	}
	e.ops.NoteDiscontinuity()
	e.setState(rxOffloading)
	e.confirmed = false
	e.recoveryFails = 0 // successful resume: the flow is healthy again
	e.cur.msgIndex += e.confirmedIdx
	e.rejoin()
}

// ResyncResponse delivers L5P software's answer to a speculative header
// identification (l5o_resync_rx_resp, §4.1). msgIndex is the number of
// messages preceding the confirmed header — the information that lets the
// NIC rebuild dynamic state at a message boundary (§3.3). An answer given
// from inside the request upcall takes effect when the packet that raised
// the request has been consumed, exactly as if it had arrived just after.
func (e *RxEngine) ResyncResponse(seq uint32, ok bool, msgIndex uint64) {
	if e.consuming {
		e.latched.pending, e.latched.seq, e.latched.ok, e.latched.msgIndex = true, seq, ok, msgIndex
		return
	}
	if e.state != rxTracking || !e.awaitingResp || seq != e.candidateSeq {
		return // stale response for an abandoned candidate
	}
	e.awaitingResp = false
	if ok && e.chaos.ForceReject != nil && e.chaos.ForceReject(seq) {
		ok = false
		e.Stats.ForcedRejects++
	}
	if !ok {
		e.Stats.ResyncRejects++
		e.noteResyncAnswer(seq, false)
		if !e.noteRecoveryFailure() {
			e.restartSearch()
		}
		return
	}
	e.Stats.ResyncConfirms++
	e.noteResyncAnswer(seq, true)
	e.confirmed = true
	e.confirmedIdx = msgIndex
	e.tryResume()
}
