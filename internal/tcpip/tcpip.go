// Package tcpip is a from-scratch TCP implementation over the simulated
// link: three-way handshake, MSS segmentation, cumulative acknowledgments,
// retransmission (RTO with exponential backoff and fast retransmit on three
// duplicate ACKs), pluggable congestion control (NewReno and CUBIC), SACK
// and DSACK loss recovery with spurious-RTO undo, out-of-order reassembly,
// receive-window flow control, and FIN teardown.
//
// The paper's central design constraint is that the NIC offload must be
// *transparent* to an unmodified software TCP stack (§1, §3). This package
// plays the role of the Linux TCP/IP stack: it knows nothing about
// offloads except that received chunks carry opaque per-packet metadata
// flags (meta.RxFlags) which it must preserve without coalescing across
// differing values (§4.3). The transmitted bytes the driver reads to
// reconstruct NIC contexts (§4.2, Fig. 6) stay in the socket's send ring
// past their acknowledgment for as long as the L5P above asks
// (RetainFrom; l5p.TxRetainer): the stack keeps them, unaware of why.
package tcpip

import (
	"fmt"
	"math/bits"
	"slices"
	"time"

	"repro/internal/cycles"
	"repro/internal/meta"
	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// WindowShift scales the 16-bit window field (RFC 7323 window scaling,
// fixed at 2^10 here): advertised windows are in KiB units.
const WindowShift = 10

// NetDevice is the stack's output: the simulated NIC (or a loopback in
// tests). The device owns frame serialization and transmit-side offloads.
type NetDevice interface {
	// Transmit sends one TCP packet toward the peer. The device keeps
	// neither pkt nor anything it points to (Payload, SACKBlocks) once
	// Transmit returns — the mirror of Stack.Input. Whatever it needs
	// later, the payload bytes included, it copies into its own frame
	// memory during the call: the stack builds its next packet in the
	// same Packet, later writes reuse the send-ring slots the payload
	// aliases, and the next wrapping segment reuses the gather scratch.
	// The stack reads nothing of pkt after Transmit returns, so a device
	// may re-enter the stack (deliver to a peer that answers at once)
	// once it has copied what it needs; on a lossless exchange the socket
	// has committed its send state by then too (DESIGN.md invariant 15).
	// Offload engines transform the device's copy, never the payload
	// slice itself.
	Transmit(pkt *wire.Packet)
}

// Stack is one host's TCP/IP stack.
type Stack struct {
	sim    *netsim.Simulator
	dev    NetDevice
	model  *cycles.Model
	ledger *cycles.Ledger
	ip     [4]byte

	listeners map[uint16]func(*Socket)
	socks     map[wire.FlowID]*Socket
	nextPort  uint16
	issSeed   uint32

	// sndFree holds outgrown send rings and those of torn-down sockets for
	// the next connections to start on: a short connection otherwise
	// doubles its ring a few times and leaves every size to the collector.
	// The rings held total at most defaultSndBuf bytes.
	sndFree freeList[byte]
	// spares does the same for the receive side's arrays.
	spares Spares
	// gather is the scratch a segment that wraps its socket's ring is
	// copied into; like any payload it lives for one Transmit call.
	gather []byte
	// txPkt is the one packet every outgoing segment and control packet is
	// built in. Like the gather scratch it lives for one Transmit call; the
	// stack reads nothing of it afterwards, so a device that re-enters the
	// stack from inside Transmit may rebuild it under the caller.
	txPkt wire.Packet
	// sackBlocks is txPkt's SACK option and sackRanges the out-of-order
	// ranges it is chosen from, both filled afresh for each ACK
	// (buildSACKBlocks) and living as long as txPkt.
	sackBlocks [wire.MaxSACKBlocks]wire.SACKBlock
	sackRanges []wire.SACKBlock

	tracer   *telemetry.Tracer
	traceTid string

	// ecn enables RFC 3168 negotiation on connections opened or accepted
	// afterwards (off by default: legacy peers and seeded golden runs).
	ecn bool
	// sack enables RFC 2018/2883 selective acknowledgments on connections
	// opened or accepted afterwards (off by default, like ECN).
	sack bool
	// bindCC binds the congestion controller of sockets created afterwards
	// (SetCongestionControl; NewReno by default).
	bindCC func(*ccState) CongestionControl
	// mtu, when nonzero, overrides the model's path MTU for segmentation
	// (SetMTU; the model value is the boot-time interface MTU).
	mtu int

	// recoveryHist, when set, receives one sample per loss-recovery
	// episode: nanoseconds from loss detection (fast retransmit or RTO)
	// until the cumulative ACK covers everything outstanding at detection.
	recoveryHist *telemetry.Histogram

	// Stats counts stack-level events.
	Stats StackStats
}

// StackStats counts stack-level events for tests and experiments.
type StackStats struct {
	PacketsIn       uint64
	PacketsOut      uint64
	Retransmits     uint64
	FastRetransmits uint64
	Timeouts        uint64
	OutOfOrderIn    uint64

	// ECN (RFC 3168).
	CEReceived  uint64 // data segments that arrived CE-marked
	ECESent     uint64 // segments sent with the ECE echo set
	ECEReceived uint64 // segments received with ECE while ECN is negotiated
	CWRSent     uint64 // data segments sent with CWR (stops the peer's echo)
	ECNCwndCuts uint64 // congestion-window reductions triggered by ECE

	// Mid-flow path-MTU changes.
	MTUChanges uint64 // SetMTU calls while sockets were live
	Resegments uint64 // transmissions re-cut after the MSS changed under them

	// SACK/DSACK loss recovery (RFC 2018, 2883, 6675-lite).
	SACKBlocksSent     uint64 // SACK blocks attached to outgoing ACKs
	SACKBlocksRcvd     uint64 // valid SACK blocks processed from peer ACKs
	DSACKsSent         uint64 // duplicate-receive reports sent (RFC 2883)
	DSACKsRcvd         uint64 // duplicate reports received
	HolesRetransmitted uint64 // scoreboard-directed hole retransmissions
	SpuriousRTOs       uint64 // timeouts proven spurious by DSACK evidence
	Undos              uint64 // cwnd/ssthresh restorations after spurious RTOs
	RecoveryEpisodes   uint64 // completed loss-recovery episodes

	// ChecksumErrors counts packets the NIC delivered flagged
	// meta.RxChecksumBad: the stack validates in software, counts the
	// failure here, and discards before any socket sees the packet.
	ChecksumErrors uint64
}

// NewStack creates a stack for the host with the given IP. The ledger
// receives the host's TCP cycle charges; the device is attached later with
// SetDevice (the NIC needs the stack reference too).
func NewStack(sim *netsim.Simulator, ip [4]byte, model *cycles.Model, ledger *cycles.Ledger) *Stack {
	return &Stack{
		sim:       sim,
		model:     model,
		ledger:    ledger,
		ip:        ip,
		listeners: make(map[uint16]func(*Socket)),
		socks:     make(map[wire.FlowID]*Socket),
		nextPort:  33000,
		issSeed:   uint32(ip[3])*1000 + 1,
		bindCC:    bindNewReno,
	}
}

// getSndRing returns a send ring of n bytes, a power of two, recycled if
// the free list has one at least that large. Its contents are stale.
func (st *Stack) getSndRing(n int) []byte {
	if b := st.sndFree.get(n); b != nil {
		return b
	}
	return make([]byte, n)
}

// putSndRing offers a ring no socket references any more to the free list;
// it is dropped when keeping it would hold more than defaultSndBuf bytes.
func (st *Stack) putSndRing(b []byte) { st.sndFree.put(b, defaultSndBuf) }

// SetDevice attaches the output device.
func (st *Stack) SetDevice(dev NetDevice) { st.dev = dev }

// SetISS overrides the initial-sequence-number seed for sockets created
// afterwards. Tests use it to exercise 32-bit sequence wraparound.
func (st *Stack) SetISS(base uint32) { st.issSeed = base }

// EnableECN turns on RFC 3168 ECN for connections opened or accepted after
// the call: SYNs negotiate ECT, data segments are sent ECN-capable, CE
// marks are echoed as ECE, and ECE triggers a once-per-window cwnd cut
// answered with CWR. Both ends must enable it for negotiation to succeed.
func (st *Stack) EnableECN() { st.ecn = true }

// EnableSACK turns on RFC 2018 selective acknowledgments (plus RFC 2883
// DSACK and DSACK-based spurious-RTO undo) for connections opened or
// accepted after the call. Both ends must enable it; negotiation rides the
// SYN/SYN-ACK "SACK permitted" option.
func (st *Stack) EnableSACK() { st.sack = true }

// SetCongestionControl selects the congestion-control algorithm ("newreno",
// "cubic") for sockets created after the call. An unknown name is an error
// and leaves the selection as it was.
func (st *Stack) SetCongestionControl(name string) error {
	bind, err := ccBinder(name)
	if err != nil {
		return err
	}
	st.bindCC = bind
	return nil
}

// CongestionControlName returns the configured algorithm name.
func (st *Stack) CongestionControlName() string { return st.bindCC(new(ccState)).Name() }

// SetRecoveryHistogram routes loss-recovery episode durations (nanoseconds
// from loss detection to full repair) into h. Pass nil to detach.
func (st *Stack) SetRecoveryHistogram(h *telemetry.Histogram) { st.recoveryHist = h }

// MSS returns the current maximum segment size: the per-stack path MTU set
// by SetMTU when present, the model's interface MTU otherwise. Every
// segmentation site (new data, fast retransmit, RTO retransmit) reads it at
// cut time, so an MTU change re-segments everything still unsent or unacked.
func (st *Stack) MSS() int {
	if st.mtu > 0 {
		return st.mtu - (wire.IPv4HeaderLen + wire.TCPHeaderLen)
	}
	return st.model.MSS()
}

// MTU returns the stack's current path MTU.
func (st *Stack) MTU() int {
	if st.mtu > 0 {
		return st.mtu
	}
	return st.model.MTU
}

// SetMTU changes the path MTU at the current virtual instant, the way a
// PMTUD verdict or a route change lands on a live stack. Segments cut
// afterwards — including retransmissions of data first sent at the old MSS
// — honor the new size; nothing already handed to the device is recalled.
func (st *Stack) SetMTU(mtu int) {
	old := st.MTU()
	st.mtu = mtu
	st.Stats.MTUChanges++
	st.tracer.Instant2("tcp", "tcp.mtu_change", st.traceTid,
		"old", int64(old), "new", int64(st.MTU()))
}

// IP returns the stack's address.
func (st *Stack) IP() [4]byte { return st.ip }

// Sim returns the simulator driving this stack.
func (st *Stack) Sim() *netsim.Simulator { return st.sim }

// Model returns the host's cycle cost model.
func (st *Stack) Model() *cycles.Model { return st.model }

// Ledger returns the host's cycle ledger.
func (st *Stack) Ledger() *cycles.Ledger { return st.ledger }

// SetTracer routes this stack's TCP events (retransmits, timeouts) onto
// the tracer under the given track label. Layers above the socket API
// reach the same tracer through Socket.StackTracer.
func (st *Stack) SetTracer(tr *telemetry.Tracer, tid string) {
	st.tracer = tr
	st.traceTid = tid
}

// Listen registers an accept callback for the given local port. The
// callback fires when a connection reaches the established state.
func (st *Stack) Listen(port uint16, onAccept func(*Socket)) {
	st.listeners[port] = onAccept
}

// Connect opens a connection to remote and returns the socket immediately
// (state SynSent). onEstablished, if non-nil, fires when the handshake
// completes.
func (st *Stack) Connect(remote wire.Addr, onEstablished func(*Socket)) *Socket {
	local := wire.Addr{IP: st.ip, Port: st.nextPort}
	st.nextPort++
	flow := wire.FlowID{Src: local, Dst: remote}
	s := st.newSocket(flow)
	s.OnEstablished = onEstablished
	s.state = stateSynSent
	s.sndNxt = s.iss + 1
	s.armRTO()
	s.sendControl(s.synFlags(), s.iss)
	return s
}

// synFlags returns the active-open SYN flags: ECE|CWR advertise ECN
// willingness (RFC 3168 §6.1.1) when the stack has ECN enabled.
func (s *Socket) synFlags() wire.TCPFlags {
	f := wire.FlagSYN
	if s.stack.ecn {
		f |= wire.FlagECE | wire.FlagCWR
	}
	return f
}

// synAckFlags returns the passive-open SYN-ACK flags: ECE alone accepts
// the peer's ECN offer.
func (s *Socket) synAckFlags() wire.TCPFlags {
	f := wire.FlagSYN | wire.FlagACK
	if s.ecnOK {
		f |= wire.FlagECE
	}
	return f
}

func (st *Stack) minRTO() time.Duration {
	return time.Duration(st.model.MinRTOMicros) * time.Microsecond
}

func (st *Stack) maxRTO() time.Duration {
	return time.Duration(st.model.MaxRTOMicros) * time.Microsecond
}

// rtoTarget and delackTarget are a Socket seen as the target of one of its
// two timers: a *Socket converts to either for free, so arming a timer binds
// no closure.
type (
	rtoTarget    Socket
	delackTarget Socket
)

func (t *rtoTarget) Fire()    { (*Socket)(t).onRTO() }
func (t *delackTarget) Fire() { (*Socket)(t).onDelack() }

// newSocket allocates the socket and nothing else of its own: its timers and
// its congestion state live inside it, and the timers fire the socket
// itself.
func (st *Stack) newSocket(flow wire.FlowID) *Socket {
	s := &Socket{
		stack:      st,
		flow:       flow,
		iss:        st.issSeed,
		sndBufCap:  defaultSndBuf,
		rcvBufCap:  defaultRcvBuf,
		rto:        initialRTO,
		peerWindow: st.MSS(), // until first segment arrives
	}
	s.cc = st.bindCC(&s.ccState)
	s.rtoTimer.Init(st.sim, (*rtoTarget)(s))
	s.delackTimer.Init(st.sim, (*delackTarget)(s))
	s.cc.Init(st.MSS())
	st.issSeed += 64013
	s.sndUna = s.iss
	s.sndNxt = s.iss
	st.socks[flow] = s
	return s
}

// Input delivers a received, already-parsed packet from the NIC, together
// with the NIC's per-packet offload verdict flags. Input keeps neither pkt
// nor anything it points to (Payload, SACKBlocks) after it returns: bytes
// it buffers are copied, so the device may reuse the packet and recycle
// the frame at once.
func (st *Stack) Input(pkt *wire.Packet, flags meta.RxFlags) {
	if flags&meta.RxChecksumBad != 0 {
		// The device delivered a frame its checksum offload flagged bad.
		// Software validation re-walks the packet — charge a stack-receive
		// pass — confirms the verdict, and discards before demux: no socket
		// may act on corrupt headers.
		st.Stats.ChecksumErrors++
		st.ledger.Charge(cycles.HostTCP, cycles.StackRx, st.model.StackRxPerPacket, len(pkt.Payload))
		return
	}
	st.Stats.PacketsIn++
	rxCost := st.model.StackRxPerPacket
	if len(pkt.Payload) == 0 {
		rxCost *= st.model.AckRxFactor
	}
	st.ledger.Charge(cycles.HostTCP, cycles.StackRx, rxCost, len(pkt.Payload))

	// The packet's flow is remote→local; sockets are keyed local→remote.
	key := pkt.Flow.Reverse()
	s, ok := st.socks[key]
	if !ok {
		if pkt.Flags&wire.FlagSYN != 0 && pkt.Flags&wire.FlagACK == 0 {
			if accept, ok := st.listeners[pkt.Flow.Dst.Port]; ok {
				s := st.newSocket(key)
				s.onAccept = accept
				s.state = stateSynRcvd
				s.rcvNxt = pkt.Seq + 1
				s.irs = pkt.Seq
				s.peerWindow = int(pkt.Window) << WindowShift
				// ECN negotiation: a SYN carrying ECE|CWR offers ECN;
				// accept with ECE on the SYN-ACK if we speak it too.
				if st.ecn && pkt.Flags&(wire.FlagECE|wire.FlagCWR) ==
					wire.FlagECE|wire.FlagCWR {
					s.ecnOK = true
				}
				// SACK negotiation: accept when both ends permit it; the
				// SYN-ACK echoes the option (built in sendControl).
				if st.sack && pkt.SACKPermitted {
					s.sackOK = true
				}
				s.sndNxt = s.iss + 1
				s.armRTO()
				s.sendControl(s.synAckFlags(), s.iss)
			}
		}
		return
	}
	s.input(pkt, flags)
}

const (
	defaultSndBuf = 4 << 20
	defaultRcvBuf = 2 << 20
	initialRTO    = 200 * time.Millisecond
	delackTimeout = 500 * time.Microsecond
)

type sockState int

const (
	stateSynSent sockState = iota
	stateSynRcvd
	stateEstablished
	stateFinWait   // we sent FIN, waiting for its ACK
	stateCloseWait // peer sent FIN; we may still send
	stateLastAck   // peer FIN'd and we sent our FIN
	stateClosed
)

func (s sockState) String() string {
	switch s {
	case stateSynSent:
		return "syn-sent"
	case stateSynRcvd:
		return "syn-rcvd"
	case stateEstablished:
		return "established"
	case stateFinWait:
		return "fin-wait"
	case stateCloseWait:
		return "close-wait"
	case stateLastAck:
		return "last-ack"
	case stateClosed:
		return "closed"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Chunk is a contiguous run of received in-order bytes sharing one offload
// verdict. The stack never merges chunks with different flags.
//
// Data is borrowed: a chunk read inside OnReadable may alias the received
// frame, which the NIC recycles when the callback returns. Whoever keeps the
// bytes past that copies them; a chunk still queued when OnReadable returns
// is copied by the socket, so a later read finds it intact.
type Chunk struct {
	// Seq is the TCP sequence number of the first byte.
	Seq uint32
	// Data is the payload (post any NIC in-place transforms), valid until
	// the receive callback that was handed it returns.
	Data []byte
	// Flags is the NIC's per-packet offload verdict.
	Flags meta.RxFlags
}

// Socket is one TCP connection endpoint.
type Socket struct {
	stack *Stack
	flow  wire.FlowID
	state sockState

	onAccept func(*Socket)

	// OnEstablished fires once when the connection is established.
	OnEstablished func(*Socket)
	// OnReadable fires whenever new in-order data (or EOF) is available.
	// The chunks it reads are valid until it returns (see Chunk).
	OnReadable func(*Socket)
	// OnDrain fires when send-buffer space becomes available after Write
	// returned a short count.
	OnDrain func(*Socket)
	// OnClose fires when the connection is fully closed.
	OnClose func(*Socket)
	// Owner is free for the layer that takes the socket over, so that its
	// callbacks can be plain functions that find it here rather than
	// closures bound per connection (ktls.Conn sets itself).
	Owner any

	// Send state.
	iss        uint32
	sndUna     uint32 // oldest unacknowledged sequence
	sndNxt     uint32 // next sequence to send
	snd        []byte // send ring, a power of two long (or nil)
	sndOff     int    // ring index of the byte at sndUna
	sndLen     int    // bytes written and not yet acknowledged
	sndBufCap  int
	sndKeep    bool   // a retention floor is set (RetainFrom, DESIGN.md invariant 16)
	sndFloor   uint32 // the floor: acknowledged bytes from here on stay in the ring
	sndHeld    int    // acknowledged bytes the floor keeps, just before sndOff
	sndResv    int    // length of the last Reserve
	finQueued  bool
	finSeq     uint32
	peerWindow int
	cc         CongestionControl // works on ccState
	ccState    ccState
	dupAcks    int
	inRecovery bool
	recoverSeq uint32
	rto        time.Duration
	srtt       time.Duration
	rttvar     time.Duration
	rtoTimer   netsim.Timer
	rttSeq     uint32
	rttAt      time.Duration
	rttPending bool
	drainNote  bool

	// Delayed-ACK state (RFC 1122: ack at least every second segment or
	// within the delayed-ACK timeout).
	delackPending bool
	delackTimer   netsim.Timer

	// rtoStreak counts consecutive RTOs without forward progress. The
	// first may be spurious (queueing-delay spikes); only a streak enters
	// full loss recovery.
	rtoStreak int

	// ECN state (RFC 3168).
	ecnOK        bool   // negotiated on the handshake; data goes out ECT(0)
	ecnEcho      bool   // CE seen: set ECE on outgoing segments until CWR
	cwrPending   bool   // cut taken: mark the next data segment with CWR
	ecnCutActive bool   // one cut per window: suppress ECE until ecnCwrEnd
	ecnCwrEnd    uint32 // sndNxt at cut time; the suppression window's end

	// lastMSS tracks the segment size this socket last cut at, so a cut at
	// a different size after SetMTU is visible as a re-segmentation event.
	lastMSS int

	// SACK state (RFC 2018/2883/6675-lite). sackOK is negotiated on the
	// handshake. The sender keeps a scoreboard of receiver-reported ranges
	// and retransmits holes directly; highRxt marks how far into the
	// current recovery holes have already been resent.
	sackOK  bool
	sb      scoreboard
	highRxt uint32

	// Receiver-side duplicate report (DSACK): the most recent duplicate
	// arrival, sent as the first SACK block of the next outgoing ACK.
	dsackPending bool
	dsackBlock   wire.SACKBlock
	// lastOOOStart is the start of the most recently arrived out-of-order
	// segment; its containing range leads the SACK block list (RFC 2018).
	lastOOOStart uint32

	// Spurious-RTO detection: after the first timeout of a streak the
	// retransmitted range is remembered; a DSACK covering it proves the
	// timeout spurious and the congestion state is restored (cc.Undo).
	undoPending            bool
	rtoRexStart, rtoRexEnd uint32

	// Loss-recovery episode measurement: detection time and the sequence
	// that must be cumulatively ACKed for the episode to end.
	episodeStart  time.Duration
	episodeEnd    uint32
	episodeActive bool
	// Lost-retransmission detection (RFC 6675 rescue, RACK-lite): the
	// lowest outstanding hole retransmission and the scoreboard top when it
	// went out. If SACK evidence advances well past that top while the
	// cumulative ACK stays pinned below the hole, the retransmission itself
	// was lost and the hole is re-driven instead of stalling until RTO.
	rescueWait bool
	rescueSeq  uint32
	rescueTop  uint32
	rescueAt   time.Duration // when the watched hole was last (re)driven

	// Receive state.
	irs        uint32
	rcvNxt     uint32
	ooo        []Chunk // out-of-order segments by Seq, in copies the socket owns
	rcvChunks  []Chunk // rcvChunks[rcvHead:] is the receive queue
	rcvHead    int
	rcvBufUsed int
	rcvBufCap  int
	peerFin    bool
	sawEOF     bool
	wndShut    bool // the window last advertised was below one MSS
	finRcvdSeq uint32
}

// Flow returns the socket's flow (local→remote).
func (s *Socket) Flow() wire.FlowID { return s.flow }

// StackModel returns the owning stack's cost model (for L5P layers).
func (s *Socket) StackModel() *cycles.Model { return s.stack.model }

// StackLedger returns the owning stack's cycle ledger (for L5P layers).
func (s *Socket) StackLedger() *cycles.Ledger { return s.stack.ledger }

// StackTracer returns the owning stack's tracer (nil when disabled).
func (s *Socket) StackTracer() *telemetry.Tracer { return s.stack.tracer }

// Spares returns the owning stack's free lists of receive-side arrays, for
// an L5P assembler above the socket (l5p.Assembler.Spares).
func (s *Socket) Spares() *Spares { return &s.stack.spares }

// StackTraceTid returns the owning stack's trace track label.
func (s *Socket) StackTraceTid() string { return s.stack.traceTid }

// State returns a printable connection state (for logs and tests).
func (s *Socket) State() string { return s.state.String() }

// Established reports whether the handshake has completed.
func (s *Socket) Established() bool {
	return s.state == stateEstablished || s.state == stateFinWait ||
		s.state == stateCloseWait || s.state == stateLastAck
}

// WriteSeq returns the TCP sequence number the next written byte will
// occupy. L5Ps use it to map messages to stream positions (§4.2).
func (s *Socket) WriteSeq() uint32 {
	return s.sndUna + uint32(s.sndLen)
}

// ReadSeq returns the TCP sequence number of the next byte ReadChunk will
// return. L5Ps use it to answer receive-resync requests (§4.3).
func (s *Socket) ReadSeq() uint32 {
	if s.rcvHead < len(s.rcvChunks) {
		return s.rcvChunks[s.rcvHead].Seq
	}
	return s.rcvNxt
}

// Write appends p to the send buffer, returning how many bytes were
// accepted (bounded by buffer space). Data is transmitted as window and
// congestion state allow. Write models sendmsg: the accepted bytes pay
// the user-to-kernel copy. Data already in kernel buffers (page cache,
// block layer, L5P record buffers) should use WriteZC instead.
func (s *Socket) Write(p []byte) int {
	n := s.WriteZC(p)
	s.stack.ledger.Charge(cycles.HostTCP, cycles.Copy,
		s.stack.model.CopyCycles(n, 0), n)
	return n
}

// WriteZC is Write without the user-copy charge (the sendpage path).
func (s *Socket) WriteZC(p []byte) int {
	n := copy(s.Reserve(len(p)), p)
	s.Commit(n)
	// A truncated write leaves the writer waiting for space.
	if n < len(p) && s.writable() {
		s.drainNote = true
	}
	return n
}

// writable reports whether the socket accepts writes.
func (s *Socket) writable() bool {
	return s.state == stateEstablished || s.state == stateCloseWait
}

// Reserve returns room for the next n stream bytes — fewer if the send
// buffer has less space, none if the socket takes no more writes — for the
// caller to fill in place; Commit(m) then appends the first m of them to
// the stream. Nothing else may use the socket or its stack in between. The
// room is send-ring memory, or, when it would straddle the ring's end, the
// stack's gather scratch, which Commit copies into the ring.
//
//simlint:hotpath
func (s *Socket) Reserve(n int) []byte {
	if n = min(n, s.sndBufCap-s.sndLen); n <= 0 || !s.writable() {
		s.sndResv = 0
		return nil
	}
	return s.sndReserve(n)
}

// Commit appends the first n bytes of the last Reserve to the stream and
// sends what the windows allow.
//
//simlint:hotpath
func (s *Socket) Commit(n int) {
	if !s.writable() {
		return
	}
	if n = min(n, s.sndResv); n > 0 {
		s.sndCommit(n)
		s.trySend()
	}
	s.sndResv = 0
	// Arm the drain notification when free space dropped below the
	// low-water mark, so steady-state writers refill as acknowledgments
	// drain.
	if s.sndBufCap-s.sndLen < s.drainLowWater() {
		s.drainNote = true
	}
}

// sndReserve returns n bytes of room behind the ring's bytes, growing the
// ring if it lacks them. Acks trim the ring at its head in O(1) (sndTrim),
// so nothing is ever moved to make room except by growSnd, once per
// doubling.
//
//simlint:hotpath
func (s *Socket) sndReserve(n int) []byte {
	s.sndResv = n
	if len(s.snd)-s.sndHeld-s.sndLen < n {
		s.growSnd(s.sndHeld + s.sndLen + n)
	}
	at := (s.sndOff + s.sndLen) & (len(s.snd) - 1)
	if at+n <= len(s.snd) {
		return s.snd[at : at+n : at+n]
	}
	if cap(s.stack.gather) < n {
		s.stack.growGather(n)
	}
	return s.stack.gather[:n:n]
}

// sndCommit appends the first n reserved bytes to the ring's buffered
// bytes, copying them in from the gather scratch, in two pieces, if the
// reservation straddled the ring's end.
//
//simlint:hotpath
func (s *Socket) sndCommit(n int) {
	at := (s.sndOff + s.sndLen) & (len(s.snd) - 1)
	if at+s.sndResv > len(s.snd) {
		g := s.stack.gather[:n]
		c := copy(s.snd[at:], g)
		copy(s.snd, g[c:])
	}
	s.sndLen += n
}

// growSnd moves the ring's bytes — retained and buffered — to the start of
// a ring of the next power of two at least need bytes long, and hands the
// old ring to the stack's free list.
func (s *Socket) growSnd(need int) {
	ring := s.stack.getSndRing(1 << bits.Len(uint(need-1)))
	if n := s.sndHeld + s.sndLen; n > 0 {
		at := (s.sndOff - s.sndHeld) & (len(s.snd) - 1)
		c := copy(ring, s.snd[at:min(at+n, len(s.snd))])
		copy(ring[c:n], s.snd)
	}
	s.stack.putSndRing(s.snd)
	s.snd, s.sndOff = ring, s.sndHeld
}

// sndTrim drops n acknowledged bytes from the head of the buffered bytes;
// those at or above a retention floor stay in the ring. It runs before
// sndUna moves past them.
func (s *Socket) sndTrim(n int) {
	s.sndLen -= n
	if s.sndKeep {
		s.sndHeld = max(0, int(int32(s.sndUna+uint32(n)-s.sndFloor)))
	}
	if s.sndLen == 0 && s.sndHeld == 0 {
		s.sndOff = 0
		return
	}
	s.sndOff = (s.sndOff + n) & (len(s.snd) - 1)
}

// RetainFrom sets the send ring's retention floor: acknowledged bytes at
// or above seq stay in the ring, readable with ReadSent, until a later
// RetainFrom raises the floor past them or ReleaseRetained drops it. A
// transmit retainer keeps the floor at the start of the oldest message it
// holds, so the NIC can re-read a message whose head TCP has already
// released. The floor never reaches below the bytes the ring still holds,
// and while it is set a torn-down socket's ring is not recycled.
func (s *Socket) RetainFrom(seq uint32) {
	if base := s.sndBase(); seqLT(seq, base) {
		seq = base
	}
	s.sndKeep, s.sndFloor = true, seq
	s.sndHeld = max(0, int(int32(s.sndUna-seq)))
}

// ReleaseRetained drops the retention floor and the acknowledged bytes it
// kept. The ring of a socket already torn down goes to the stack's free
// list now.
func (s *Socket) ReleaseRetained() {
	s.sndKeep, s.sndHeld = false, 0
	if s.state == stateClosed {
		s.dropSnd()
	}
}

// sndBase returns the sequence number of the first byte the ring holds.
func (s *Socket) sndBase() uint32 {
	if s.sndHeld > 0 {
		return s.sndFloor
	}
	return s.sndUna
}

// ReadSent returns the written bytes [from, to) while the send ring holds
// them — unacknowledged, or retained (RetainFrom) — as a slice of the ring
// and, for a range that wraps its end, the slice continuing it. ok is
// false when the ring does not hold the whole range, or is gone with the
// torn-down socket. The bytes are valid until the next write,
// acknowledgment or transmission.
func (s *Socket) ReadSent(from, to uint32) (head, tail []byte, ok bool) {
	base := s.sndBase()
	off, end := int(int32(from-base)), int(int32(to-base))
	if off < 0 || end < off || end > s.sndHeld+s.sndLen || s.snd == nil && s.state == stateClosed {
		return nil, nil, false
	}
	at := (s.sndOff - s.sndHeld + off) & (len(s.snd) - 1)
	head = s.snd[at:min(at+end-off, len(s.snd))]
	return head, s.snd[:end-off-len(head)], true
}

// dropSnd hands the send ring to the stack's free list.
func (s *Socket) dropSnd() {
	s.stack.putSndRing(s.snd)
	s.snd, s.sndOff, s.sndLen, s.sndHeld = nil, 0, 0, 0
}

// sndSlice returns the n buffered bytes that start off bytes past sndUna:
// a slice of the ring, or — for the rare range that wraps its end — the
// stack's gather scratch holding a copy. Either is valid until the next
// write, ack or transmission, which is all the NetDevice contract lets the
// device rely on.
//
//simlint:hotpath
func (s *Socket) sndSlice(off, n int) []byte {
	at := (s.sndOff + off) & (len(s.snd) - 1)
	if at+n <= len(s.snd) {
		return s.snd[at : at+n : at+n]
	}
	if cap(s.stack.gather) < n {
		s.stack.growGather(n)
	}
	g := s.stack.gather[:n]
	c := copy(g, s.snd[at:])
	copy(g[c:], s.snd)
	return g
}

// growGather makes the gather scratch at least n bytes long.
func (st *Stack) growGather(n int) { st.gather = make([]byte, n) }

// WriteSpace returns how many bytes Write would currently accept.
func (s *Socket) WriteSpace() int { return s.sndBufCap - s.sndLen }

// AckedSeq returns the oldest unacknowledged sequence number (snd.una).
// Bytes before it are no longer retained.
func (s *Socket) AckedSeq() uint32 { return s.sndUna }

// Unsent returns bytes buffered but not yet transmitted.
func (s *Socket) Unsent() int {
	return s.sndLen - int(s.sndNxt-s.sndUna)
}

// Unacked returns bytes transmitted but not yet acknowledged.
func (s *Socket) Unacked() int { return int(s.sndNxt - s.sndUna) }

// BufferedOut returns all bytes held in the send buffer.
func (s *Socket) BufferedOut() int { return s.sndLen }

// Close queues a FIN after all buffered data. Further Writes are refused.
func (s *Socket) Close() {
	switch s.state {
	case stateEstablished:
		s.state = stateFinWait
	case stateCloseWait:
		s.state = stateLastAck
	default:
		return
	}
	s.finQueued = true
	s.trySend()
}

// Readable returns the number of in-order bytes available to read.
func (s *Socket) Readable() int { return s.rcvBufUsed }

// EOF reports whether the peer's FIN has been delivered and all data read.
func (s *Socket) EOF() bool { return s.peerFin && s.rcvBufUsed == 0 }

// ReadChunk returns the next in-order chunk of received data with its
// offload verdict flags, or ok=false when nothing is buffered. A chunk
// never mixes bytes with different verdicts. Inside OnReadable its bytes
// may be the received frame's and are valid until OnReadable returns; a
// caller that keeps them copies them.
//
// Reading re-opens the receive window. A sender that was told the window is
// shut stops with nothing in flight, so no ACK is due that would tell it
// otherwise: the read that brings free space back to min(rcvBufCap/2, MSS)
// — the receiver's silly-window threshold — sends the window update itself.
func (s *Socket) ReadChunk() (c Chunk, ok bool) {
	if s.rcvHead == len(s.rcvChunks) {
		return Chunk{}, false
	}
	c = s.rcvChunks[s.rcvHead]
	s.rcvChunks[s.rcvHead] = Chunk{}
	if s.rcvHead++; s.rcvHead == len(s.rcvChunks) {
		// Empty: rewind, so deliver appends into the same array for
		// the life of the connection instead of walking off its end.
		s.rcvChunks, s.rcvHead = s.rcvChunks[:0], 0
		s.freeRcvQueue()
	}
	s.rcvBufUsed -= len(c.Data)
	if s.wndShut && s.rcvBufCap-s.rcvBufUsed >= min(s.rcvBufCap/2, s.stack.MSS()) && s.state != stateClosed {
		s.sendAck()
	}
	return c, true
}

// PeekChunks invokes fn over buffered chunks without consuming them,
// stopping early if fn returns false. fn may not keep a chunk's bytes past
// the receive callback it runs in (see ReadChunk).
func (s *Socket) PeekChunks(fn func(Chunk) bool) {
	for _, c := range s.rcvChunks[s.rcvHead:] {
		if !fn(c) {
			return
		}
	}
}

func (s *Socket) recvWindow() uint16 {
	free := s.rcvBufCap - s.rcvBufUsed
	if free < 0 {
		free = 0
	}
	w := free >> WindowShift
	if w > 0xffff {
		w = 0xffff
	}
	s.wndShut = free < s.stack.MSS() // every caller is building a segment
	return uint16(w)
}

// sendControl sends a segment without payload (SYN, FIN, ACK), built in the
// stack's one transmit packet.
//
//simlint:hotpath
func (s *Socket) sendControl(flags wire.TCPFlags, seq uint32) {
	// While echoing congestion, every non-handshake ACK carries ECE so the
	// sender hears it even if individual ACKs are lost (RFC 3168 §6.1.3).
	if s.ecnEcho && flags&wire.FlagACK != 0 && flags&wire.FlagSYN == 0 {
		flags |= wire.FlagECE
		s.stack.Stats.ECESent++
	}
	pkt := &s.stack.txPkt
	*pkt = wire.Packet{
		Flow:   s.flow,
		Seq:    seq,
		Ack:    s.rcvNxt,
		Flags:  flags,
		Window: s.recvWindow(),
	}
	if flags&wire.FlagSYN != 0 {
		// Active open offers SACK whenever the stack speaks it; the
		// SYN-ACK echoes only if the negotiation succeeded.
		if flags&wire.FlagACK == 0 {
			pkt.SACKPermitted = s.stack.sack
		} else {
			pkt.SACKPermitted = s.sackOK
		}
	} else if s.sackOK && flags&wire.FlagACK != 0 {
		// SACK blocks ride pure ACKs only: control segments carry no
		// payload, so the option bytes never push a data frame past the
		// link MTU.
		pkt.SACKBlocks = s.buildSACKBlocks()
	}
	s.output(pkt)
}

// buildSACKBlocks assembles the outgoing SACK option in the stack's arrays:
// a pending DSACK duplicate report first (RFC 2883), then the out-of-order
// ranges with the most recently changed one leading (RFC 2018 §4).
func (s *Socket) buildSACKBlocks() []wire.SACKBlock {
	if !s.dsackPending && len(s.ooo) == 0 {
		return nil
	}
	st := s.stack
	blocks := st.sackBlocks[:0]
	if s.dsackPending {
		blocks = append(blocks, s.dsackBlock)
		s.dsackPending = false
		st.Stats.DSACKsSent++
	}
	st.sackRanges = s.oooRanges(st.sackRanges[:0])
	ranges := st.sackRanges
	// Most recently received range first.
	for i, r := range ranges {
		if i > 0 && seqLE(r.Start, s.lastOOOStart) && seqLT(s.lastOOOStart, r.End) {
			ranges[0], ranges[i] = ranges[i], ranges[0]
			break
		}
	}
	for _, r := range ranges {
		if len(blocks) >= wire.MaxSACKBlocks {
			break
		}
		blocks = append(blocks, r)
	}
	st.Stats.SACKBlocksSent += uint64(len(blocks))
	return blocks
}

// oooRanges appends to out the sorted out-of-order segments merged into
// disjoint sequence ranges.
func (s *Socket) oooRanges(out []wire.SACKBlock) []wire.SACKBlock {
	for _, seg := range s.ooo {
		start, end := seg.Seq, seg.Seq+uint32(len(seg.Data))
		if n := len(out); n > 0 && seqLE(start, out[n-1].End) {
			if seqLT(out[n-1].End, end) {
				out[n-1].End = end
			}
		} else {
			out = append(out, wire.SACKBlock{Start: start, End: end})
		}
	}
	return out
}

// output charges the stack's transmit cost for pkt and hands it to the
// device; pkt is dead once the device returns (NetDevice).
//
//simlint:hotpath
func (s *Socket) output(pkt *wire.Packet) {
	st := s.stack
	st.Stats.PacketsOut++
	cost := st.model.StackTxPerPacket / st.model.TxBatchFactor
	st.ledger.Charge(cycles.HostTCP, cycles.StackTx, cost, len(pkt.Payload))
	st.dev.Transmit(pkt)
}

func (s *Socket) sendAck() {
	s.clearDelack()
	s.sendControl(wire.FlagACK, s.sndNxt)
}

// scheduleAck implements delayed ACKs: every second in-order data segment
// is acknowledged immediately; a lone segment is acknowledged after the
// delayed-ACK timeout unless more data (or an outgoing segment that
// piggybacks the ACK) arrives first.
func (s *Socket) scheduleAck() {
	if s.delackPending {
		s.sendAck()
		return
	}
	s.delackPending = true
	s.delackTimer.Reset(delackTimeout)
}

func (s *Socket) onDelack() {
	if s.delackPending && s.state != stateClosed {
		s.sendAck()
	}
}

func (s *Socket) clearDelack() {
	s.delackPending = false
	s.delackTimer.Stop()
}

// trySend transmits as much buffered data as the windows allow.
func (s *Socket) trySend() {
	if !s.Established() && s.state != stateFinWait && s.state != stateLastAck {
		return
	}
	mss := s.stack.MSS()
	for {
		inFlight := int(s.sndNxt - s.sndUna)
		wnd := s.cc.Cwnd()
		if s.peerWindow < wnd {
			wnd = s.peerWindow
		}
		avail := s.sndLen - inFlight
		if avail <= 0 {
			break
		}
		if inFlight >= wnd {
			break
		}
		n := avail
		if n > mss {
			n = mss
		}
		if inFlight+n > wnd {
			n = wnd - inFlight
		}
		if n <= 0 {
			break
		}
		seq := s.sndNxt
		s.sndNxt += uint32(n)
		s.transmitRange(seq, n, false)
	}
	// FIN goes out once all data has been transmitted.
	if s.finQueued && int(s.sndNxt-s.sndUna) == s.sndLen {
		s.finSeq = s.sndNxt
		s.sndNxt++
		s.finQueued = false
		s.armRTO()
		s.sendControl(wire.FlagFIN|wire.FlagACK, s.finSeq)
	}
	// Unsent data with nothing in flight means the peer's window is shut:
	// the same timer then runs as the persist timer (onRTO probes).
	if (s.Unacked() > 0 || s.Unsent() > 0) && !s.rtoTimer.Pending() {
		s.armRTO()
	}
	if s.drainNote && s.sndBufCap-s.sndLen >= s.drainLowWater() && s.OnDrain != nil {
		s.drainNote = false
		s.OnDrain(s)
	}
}

// transmitRange sends len bytes starting at seq out of the send buffer, in
// the stack's one transmit packet. The payload slice aliases the send ring
// (or, for a range that wraps it, the gather scratch); per the NetDevice
// contract the device copies it into frame memory during Transmit, so the
// hot path performs one payload copy (host memory → NIC frame, the DMA),
// two for a wrapping segment.
//
//simlint:hotpath
func (s *Socket) transmitRange(seq uint32, n int, isRetransmit bool) {
	pkt := &s.stack.txPkt
	*pkt = wire.Packet{
		Flow:    s.flow,
		Seq:     seq,
		Ack:     s.rcvNxt,
		Flags:   wire.FlagACK | wire.FlagPSH,
		Window:  s.recvWindow(),
		Payload: s.sndSlice(int(seq-s.sndUna), n),
	}
	if s.ecnOK {
		pkt.ECN = wire.ECNECT0
		if s.ecnEcho {
			pkt.Flags |= wire.FlagECE
			s.stack.Stats.ECESent++
		}
		if s.cwrPending {
			pkt.Flags |= wire.FlagCWR
			s.cwrPending = false
			s.stack.Stats.CWRSent++
			s.stack.tracer.Instant1("tcp", "tcp.cwr", s.stack.traceTid,
				"seq", int64(seq))
		}
	}
	// A cut at a different size than this socket's previous one means the
	// MSS moved under the flow: the stream is being re-segmented.
	if mss := s.stack.MSS(); s.lastMSS != mss {
		if s.lastMSS != 0 {
			s.stack.Stats.Resegments++
			s.stack.tracer.Instant2("tcp", "tcp.reseg", s.stack.traceTid,
				"seq", int64(seq), "mss", int64(mss))
		}
		s.lastMSS = mss
	}
	if isRetransmit {
		s.stack.tracer.Instant2("tcp", "tcp.retransmit", s.stack.traceTid,
			"seq", int64(seq), "len", int64(n))
	}
	if !isRetransmit && !s.rttPending {
		s.rttPending = true
		s.rttSeq = seq + uint32(n)
		s.rttAt = s.stack.sim.Now()
	}
	s.clearDelack() // the segment carries the ACK
	s.output(pkt)
}

func (s *Socket) armRTO() { s.rtoTimer.Reset(s.rto) }

func (s *Socket) onRTO() {
	if s.state == stateClosed {
		return
	}
	probe := s.state != stateSynSent && s.state != stateSynRcvd && s.Unacked() == 0
	if probe && s.Unsent() <= 0 {
		return
	}
	// Every piece of timer and recovery state is committed before the
	// transmission: a device may deliver it and hand the answer back from
	// inside Transmit (DESIGN.md invariant 15).
	s.rto = min(2*s.rto, s.stack.maxRTO())
	switch s.state {
	case stateSynSent:
		s.sendControl(s.synFlags(), s.iss)
	case stateSynRcvd:
		s.sendControl(s.synAckFlags(), s.iss)
	default:
		if probe {
			// Persist probe: the window update that would restart a sender
			// stopped by a shut window can be lost, and with nothing in
			// flight nothing else would ever elicit another. One byte of new
			// data past the window does: its ACK carries the window as it is
			// now, and a lost probe is retransmitted like any segment.
			s.sndNxt++
			s.transmitRange(s.sndNxt-1, 1, false)
			break
		}
		s.stack.Stats.Timeouts++
		s.stack.Stats.Retransmits++
		s.stack.tracer.Instant1("tcp", "tcp.rto", s.stack.traceTid, "seq", int64(s.sndUna))
		// Collapse to one segment (RFC 5681). A repeated timeout without
		// progress means a multi-loss window: enter loss recovery up to
		// sndNxt so that each partial ACK retransmits the next hole
		// immediately (healing at RTT pace instead of one RTO per hole).
		// A single timeout may be spurious — a queueing-delay spike — and
		// must not trigger a full-window retransmission.
		flight := int(s.sndNxt - s.sndUna)
		s.cc.OnRTO(flight, s.stack.MSS(), s.stack.sim.Now())
		s.rtoStreak++
		if s.rtoStreak > 1 {
			s.inRecovery = true
			s.recoverSeq = s.sndNxt
		} else {
			s.inRecovery = false
		}
		s.dupAcks = 0
		s.highRxt = s.sndUna
		s.beginEpisode()
		n := min(s.stack.MSS(), s.sndLen)
		// Arm spurious-RTO detection on the first timeout of a streak: if
		// the peer later DSACKs exactly this retransmitted range, the
		// originals were merely delayed and the collapse is undone.
		s.undoPending = s.rtoStreak == 1
		s.rtoRexStart = s.sndUna
		s.rtoRexEnd = s.sndUna + uint32(max(n, 1)) // 1: the FIN's retransmission
		s.rttPending = false                       // Karn's algorithm: no samples from rexmits
		if n > 0 {
			s.transmitRange(s.sndUna, n, true)
		} else if s.finSeq == s.sndUna && s.sndNxt == s.sndUna+1 {
			s.sendControl(wire.FlagFIN|wire.FlagACK, s.finSeq)
		}
	}
	s.armRTO()
}

func seqLE(a, b uint32) bool { return int32(a-b) <= 0 }

// drainLowWater is the free-space threshold at which a waiting writer is
// woken: enough for several MSS-sized segments or records.
func (s *Socket) drainLowWater() int {
	lw := s.sndBufCap / 4
	if lw > 128<<10 {
		lw = 128 << 10
	}
	return lw
}
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }

func (s *Socket) input(pkt *wire.Packet, flags meta.RxFlags) {
	switch s.state {
	case stateSynSent:
		if pkt.Flags&(wire.FlagSYN|wire.FlagACK) == wire.FlagSYN|wire.FlagACK &&
			pkt.Ack == s.iss+1 {
			s.irs = pkt.Seq
			s.rcvNxt = pkt.Seq + 1
			s.sndUna = pkt.Ack
			s.peerWindow = int(pkt.Window) << WindowShift
			// ECE on the SYN-ACK means the peer accepted our ECN offer.
			if s.stack.ecn && pkt.Flags&wire.FlagECE != 0 {
				s.ecnOK = true
			}
			// SACK-permitted echoed on the SYN-ACK seals the negotiation.
			if s.stack.sack && pkt.SACKPermitted {
				s.sackOK = true
			}
			s.state = stateEstablished
			s.stopRTO()
			s.sendAck()
			if s.OnEstablished != nil {
				s.OnEstablished(s)
			}
		}
		return
	case stateSynRcvd:
		if pkt.Flags&wire.FlagACK != 0 && pkt.Ack == s.iss+1 {
			s.sndUna = pkt.Ack
			s.peerWindow = int(pkt.Window) << WindowShift
			s.state = stateEstablished
			s.stopRTO()
			if s.onAccept != nil {
				s.onAccept(s)
			}
			// Fall through: the handshake ACK may carry data.
		} else if pkt.Flags&wire.FlagSYN != 0 {
			// Retransmitted SYN: re-send SYN-ACK.
			s.sendControl(wire.FlagSYN|wire.FlagACK, s.iss)
			return
		} else {
			return
		}
	case stateClosed:
		return
	}

	if pkt.Flags&wire.FlagSYN != 0 {
		// Retransmitted SYN-ACK: our handshake ACK was lost; re-ack.
		s.sendAck()
		return
	}

	if s.ecnOK && len(pkt.Payload) > 0 {
		// CWR from the sender acknowledges our echo; a CE mark on this very
		// segment restarts it (checked after, so back-to-back congestion is
		// not swallowed by the reset).
		if pkt.Flags&wire.FlagCWR != 0 {
			s.ecnEcho = false
		}
		if pkt.ECN == wire.ECNCE {
			s.stack.Stats.CEReceived++
			if !s.ecnEcho {
				s.stack.tracer.Instant1("tcp", "tcp.ce", s.stack.traceTid,
					"seq", int64(pkt.Seq))
			}
			s.ecnEcho = true
		}
	}

	if pkt.Flags&wire.FlagACK != 0 {
		s.processAck(pkt)
	}
	if len(pkt.Payload) > 0 || pkt.Flags&wire.FlagFIN != 0 {
		s.processData(pkt, flags)
	}
}

func (s *Socket) stopRTO() { s.rtoTimer.Stop() }

func (s *Socket) processAck(pkt *wire.Packet) {
	ack := pkt.Ack
	s.peerWindow = int(pkt.Window) << WindowShift
	mss := s.stack.MSS()

	// ECE: the peer saw a CE mark. React at most once per window (RFC 3168
	// §6.1.2): halve cwnd, answer with CWR on the next data segment, and
	// ignore further echoes until the cut's flight is acknowledged. Loss
	// recovery already took its own reduction, so don't stack a second one.
	if s.ecnOK && pkt.Flags&wire.FlagECE != 0 {
		s.stack.Stats.ECEReceived++
		if !s.ecnCutActive && !s.inRecovery {
			s.ecnCutActive = true
			s.ecnCwrEnd = s.sndNxt
			s.cc.OnECE(mss, s.stack.sim.Now())
			s.cwrPending = true
			s.stack.Stats.ECNCwndCuts++
			s.stack.tracer.Instant2("tcp", "tcp.ecn_cut", s.stack.traceTid,
				"cwnd", int64(s.cc.Cwnd()), "end", int64(s.ecnCwrEnd))
		}
	}
	if s.ecnCutActive && !seqLT(ack, s.ecnCwrEnd) {
		s.ecnCutActive = false
	}

	// Incorporate SACK information before the cumulative-ACK logic: the
	// scoreboard steers hole retransmission, and a DSACK may prove the
	// last RTO spurious.
	if s.sackOK && len(pkt.SACKBlocks) > 0 {
		s.processSACKBlocks(pkt)
	}

	if seqLE(ack, s.sndUna) {
		// Duplicate ACK (only counts if it doesn't carry new data ack).
		if ack == s.sndUna && s.Unacked() > 0 && len(pkt.Payload) == 0 {
			s.dupAcks++
			if s.dupAcks == 3 && !s.inRecovery {
				s.enterFastRecovery(mss)
			} else if s.dupAcks > 3 && s.inRecovery {
				s.cc.OnDupAck(mss) // inflate during recovery
				if s.sackOK {
					s.sackRetransmit(false)
				}
				s.trySend()
			}
		} else if s.Unacked() == 0 {
			// Nothing in flight, so no later ACK will call trySend: if this
			// one re-opened a shut window it must restart the sender itself.
			s.trySend()
		}
		return
	}
	if seqLT(s.sndNxt, ack) {
		return // acks data we never sent; ignore
	}

	// New data acknowledged.
	s.rtoStreak = 0
	acked := ack - s.sndUna
	finAcked := false
	dataAcked := int(acked)
	if s.finSeq != 0 && seqLT(s.finSeq, ack) {
		finAcked = true
		dataAcked--
	}
	if dataAcked > s.sndLen {
		dataAcked = s.sndLen
	}
	s.sndTrim(dataAcked)
	s.sndUna = ack
	s.sb.advance(ack)
	if s.rescueWait && seqLT(s.rescueSeq, ack) {
		s.rescueWait = false // the watched hole was filled
	}
	// The cumulative ACK moved past the RTO-retransmitted range without
	// DSACK evidence (processSACKBlocks ran above): the timeout was real.
	if s.undoPending && !seqLT(ack, s.rtoRexEnd) {
		s.undoPending = false
	}

	// RTT sample (Karn's: only for untransmitted-once data).
	if s.rttPending && seqLE(s.rttSeq, ack) {
		s.rttPending = false
		sample := s.stack.sim.Now() - s.rttAt
		if s.srtt == 0 {
			s.srtt = sample
			s.rttvar = sample / 2
		} else {
			delta := s.srtt - sample
			if delta < 0 {
				delta = -delta
			}
			s.rttvar = (3*s.rttvar + delta) / 4
			s.srtt = (7*s.srtt + sample) / 8
		}
		s.reseedRTO()
	} else {
		// New data was acknowledged: the connection is alive, so shed any
		// exponential backoff (Linux behaviour; pure RFC 6298 retention
		// deadlocks multi-loss windows behind 4-second timers).
		s.reseedRTO()
	}

	if s.inRecovery {
		if seqLT(ack, s.recoverSeq) {
			// Partial ACK: retransmit the next hole, deflate.
			if s.sackOK {
				s.sackRetransmit(true)
			} else {
				n := min(mss, s.sndLen)
				if n > 0 {
					s.stack.Stats.Retransmits++
					s.transmitRange(s.sndUna, n, true)
				}
			}
			s.cc.OnPartialAck(int(acked), mss)
		} else {
			s.exitRecovery(mss)
		}
	} else {
		s.dupAcks = 0
		s.cc.OnAck(int(acked), mss, s.stack.sim.Now())
	}
	s.maybeEndEpisode(ack)

	if s.Unacked() > 0 {
		s.armRTO()
	} else {
		s.stopRTO()
		s.reseedRTO()
	}

	if finAcked {
		switch s.state {
		case stateFinWait:
			// Wait for peer's FIN (handled in processData).
		case stateLastAck:
			s.teardown()
		}
	}
	s.trySend()
	if s.drainNote && s.sndBufCap-s.sndLen >= s.drainLowWater() && s.OnDrain != nil {
		s.drainNote = false
		s.OnDrain(s)
	}
}

// enterFastRecovery starts fast retransmit + fast recovery on the third
// duplicate ACK. With SACK the scoreboard directs which bytes go out; the
// legacy path blindly resends the segment at snd.una.
func (s *Socket) enterFastRecovery(mss int) {
	s.stack.Stats.FastRetransmits++
	s.cc.OnEnterRecovery(s.Unacked(), mss, s.stack.sim.Now())
	s.inRecovery = true
	s.recoverSeq = s.sndNxt
	s.undoPending = false
	s.beginEpisode()
	if s.sackOK {
		s.highRxt = s.sndUna
		s.sackRetransmit(true)
		return
	}
	s.stack.Stats.Retransmits++
	s.rttPending = false
	if n := min(mss, s.sndLen); n > 0 {
		s.transmitRange(s.sndUna, n, true)
	}
}

// exitRecovery ends fast recovery after the cumulative ACK covers
// recoverSeq, collapsing the inflated window and re-seeding the RTO from
// the smoothed RTT so no exponentially backed-off timer outlives the
// episode it backed off for.
func (s *Socket) exitRecovery(mss int) {
	s.inRecovery = false
	s.cc.OnExitRecovery(mss)
	s.dupAcks = 0
	s.highRxt = s.sndUna
	s.reseedRTO()
}

// reseedRTO recomputes the retransmission timeout from SRTT/RTTVAR
// (RFC 6298), falling back to the initial RTO before the first sample.
// Forward progress always lands here, so exponential backoff never
// outlives the stall that caused it.
func (s *Socket) reseedRTO() {
	if s.srtt > 0 {
		s.rto = s.srtt + 4*s.rttvar
	} else {
		s.rto = initialRTO
	}
	if s.rto < s.stack.minRTO() {
		s.rto = s.stack.minRTO()
	}
	if s.rto > s.stack.maxRTO() {
		s.rto = s.stack.maxRTO()
	}
}

// processSACKBlocks folds the ACK's SACK option into the scoreboard.
// Blocks at or below the cumulative ACK are DSACK duplicate reports
// (RFC 2883 §4); one covering the last RTO's retransmission proves that
// timeout spurious.
func (s *Socket) processSACKBlocks(pkt *wire.Packet) {
	for _, b := range pkt.SACKBlocks {
		if !seqLT(b.Start, b.End) {
			continue // malformed or empty block
		}
		s.stack.Stats.SACKBlocksRcvd++
		if seqLE(b.End, pkt.Ack) || seqLT(b.Start, s.sndUna) {
			s.stack.Stats.DSACKsRcvd++
			s.maybeUndoSpuriousRTO(b)
			continue
		}
		if seqLT(s.sndNxt, b.End) {
			continue // beyond anything we sent; ignore
		}
		s.sb.add(b.Start, b.End)
	}
	// Lost-retransmission rescue: the receiver keeps SACKing new data far
	// above the bottom hole we already retransmitted, yet the cumulative
	// ACK never moves — the retransmission died too. Re-open the hole so
	// the next retransmit round re-drives it rather than waiting for RTO.
	if s.inRecovery && s.rescueWait && s.sackOK {
		// Rate-limit to roughly one rescue per RTT: the re-driven hole
		// needs a round trip to be acknowledged before it can be presumed
		// lost again.
		wait := s.srtt
		if wait <= 0 {
			wait = s.rto / 2
		}
		if top, ok := s.sb.top(); ok &&
			s.stack.sim.Now()-s.rescueAt >= wait &&
			seqSub(top, s.rescueTop) >= 3*s.stack.MSS() && !seqLT(s.rescueSeq, s.sndUna) {
			if seqLT(s.rescueSeq, s.highRxt) {
				s.highRxt = s.rescueSeq
			}
			s.rescueTop = top // the next rescue needs fresh evidence again
			s.sackRetransmit(true)
		}
	}
}

// maybeUndoSpuriousRTO restores the congestion state collapsed by the last
// timeout when a DSACK shows its retransmission duplicated data the
// receiver already had — the Eifel response, with DSACK as the detector.
func (s *Socket) maybeUndoSpuriousRTO(b wire.SACKBlock) {
	if !s.undoPending {
		return
	}
	if seqLT(s.rtoRexStart, b.Start) || seqLT(b.End, s.rtoRexEnd) {
		return // the report doesn't cover the RTO retransmission
	}
	s.undoPending = false
	s.stack.Stats.SpuriousRTOs++
	s.stack.Stats.Undos++
	s.cc.Undo()
	s.rtoStreak = 0
	s.inRecovery = false
	s.reseedRTO()
	if s.Unacked() > 0 {
		s.armRTO()
	}
	s.stack.tracer.Instant1("tcp", "tcp.spurious_rto", s.stack.traceTid,
		"seq", int64(s.rtoRexStart))
}

// sackRetransmit sends scoreboard-directed hole retransmissions: unsacked
// ranges below the highest SACKed sequence, one MSS at a time, while the
// unsacked flight fits the congestion window. force guarantees at least one
// hole goes out regardless of the pipe estimate (fast-retransmit entry and
// partial ACKs must always make repair progress).
func (s *Socket) sackRetransmit(force bool) {
	mss := s.stack.MSS()
	top, ok := s.sb.top()
	if !ok {
		return
	}
	dataEnd := s.sndUna + uint32(s.sndLen)
	for {
		from := s.highRxt
		if seqLT(from, s.sndUna) {
			from = s.sndUna
		}
		if !force {
			// Conservative pipe: bytes in flight not yet SACKed (lost
			// bytes stay counted, which only delays, never duplicates).
			pipe := s.Unacked() - s.sb.sackedBytes()
			if pipe < 0 {
				pipe = 0
			}
			if pipe+mss > s.cc.Cwnd() {
				return
			}
		}
		start, end, ok := s.sb.nextHole(from, top)
		if !ok || seqLE(dataEnd, start) {
			return
		}
		if seqLT(dataEnd, end) {
			end = dataEnd
		}
		n := min(mss, seqSub(end, start))
		if n <= 0 {
			return
		}
		s.stack.Stats.Retransmits++
		s.stack.Stats.HolesRetransmitted++
		s.highRxt = start + uint32(n)
		s.rttPending = false // Karn: no RTT samples from retransmissions
		force = false
		if !s.rescueWait || seqLE(start, s.rescueSeq) {
			s.rescueWait = true
			s.rescueSeq = start
			s.rescueTop = top
			s.rescueAt = s.stack.sim.Now()
		}
		// Last, so an answer delivered from inside Transmit finds the
		// scoreboard state above committed.
		s.transmitRange(start, n, true)
	}
}

// beginEpisode stamps the start of a loss-recovery episode (fast
// retransmit or RTO). Consecutive detections extend the same episode.
func (s *Socket) beginEpisode() {
	if s.episodeActive {
		return
	}
	s.episodeActive = true
	s.episodeStart = s.stack.sim.Now()
	s.episodeEnd = s.sndNxt
}

// maybeEndEpisode closes the running episode once the cumulative ACK
// covers everything outstanding at detection time.
func (s *Socket) maybeEndEpisode(ack uint32) {
	if !s.episodeActive || seqLT(ack, s.episodeEnd) {
		return
	}
	s.episodeActive = false
	s.stack.Stats.RecoveryEpisodes++
	s.stack.recoveryHist.Record(int64(s.stack.sim.Now() - s.episodeStart))
}

func (s *Socket) processData(pkt *wire.Packet, flags meta.RxFlags) {
	seq := pkt.Seq
	data := pkt.Payload
	fin := pkt.Flags&wire.FlagFIN != 0

	// Trim data already received.
	if seqLT(seq, s.rcvNxt) {
		skip := s.rcvNxt - seq
		// Duplicate bytes below rcvNxt: queue a DSACK report (RFC 2883)
		// for the next outgoing ACK so the sender can tell retransmission
		// from reordering.
		if s.sackOK && len(data) > 0 {
			dupEnd := seq + uint32(min(int(skip), len(data)))
			s.dsackPending = true
			s.dsackBlock = wire.SACKBlock{Start: seq, End: dupEnd}
		}
		if int(skip) >= len(data) {
			if fin && seqLE(pkt.EndSeq()-1, s.rcvNxt) {
				s.handleFin(pkt.EndSeq() - 1)
			}
			s.sendAck() // pure duplicate: re-ack
			return
		}
		data = data[skip:]
		seq = s.rcvNxt
	}

	if seq == s.rcvNxt {
		s.deliver(seq, data, flags)
		if fin {
			s.handleFin(pkt.EndSeq() - 1)
		}
		s.drainOOO()
		if fin || len(s.ooo) > 0 {
			s.sendAck() // ack immediately when filling holes or closing
		} else {
			s.scheduleAck()
		}
		if s.OnReadable != nil && (s.rcvBufUsed > 0 || s.EOF()) {
			s.OnReadable(s)
		}
		if len(data) > 0 {
			s.keepUnread(seq)
		}
		return
	}

	// Out of order: buffer and send a duplicate ACK (with SACK blocks when
	// negotiated; buildSACKBlocks puts this segment's range first).
	s.stack.Stats.OutOfOrderIn++
	if len(data) > 0 {
		dup := s.insertOOO(Chunk{Seq: seq, Data: append([]byte(nil), data...), Flags: flags})
		s.lastOOOStart = seq
		if dup && s.sackOK {
			// An exact repeat of a buffered out-of-order segment is also
			// a duplicate worth reporting (RFC 2883 §4.2).
			s.dsackPending = true
			s.dsackBlock = wire.SACKBlock{Start: seq, End: seq + uint32(len(data))}
		}
	}
	if fin {
		s.peerFinPending(pkt.EndSeq() - 1)
	}
	s.sendAck()
}

func (s *Socket) peerFinPending(seq uint32) {
	// Remember an out-of-order FIN; applied when the stream catches up.
	s.finRcvdSeq = seq
}

func (s *Socket) handleFin(seq uint32) {
	if s.peerFin {
		return
	}
	s.peerFin = true
	s.rcvNxt = seq + 1
	s.freeRcvQueue()
	switch s.state {
	case stateEstablished:
		s.state = stateCloseWait
	case stateFinWait:
		s.teardown()
	}
}

func (s *Socket) teardown() {
	if s.state == stateClosed {
		return
	}
	s.state = stateClosed
	s.stopRTO()
	s.clearDelack()
	delete(s.stack.socks, s.flow)
	// Nothing reads the send buffer of a closed socket, so its ring can
	// serve the next connection — the one OnClose may be about to open —
	// unless a transmit retainer still holds messages in it: then the NIC
	// may yet replay from it, and ReleaseRetained recycles it.
	if !s.sndKeep {
		s.dropSnd()
	}
	if s.OnClose != nil {
		s.OnClose(s)
	}
}

// deliver appends in-order payload to the receive queue. data is borrowed:
// from processData it aliases the arriving frame, which the NIC recycles as
// soon as Input returns, so the chunk is handed to OnReadable by reference
// and keepUnread copies it only if the reader leaves it queued; drainOOO's
// segments are the socket's own (insertOOO copied them on arrival).
//
//simlint:hotpath
func (s *Socket) deliver(seq uint32, data []byte, flags meta.RxFlags) {
	if len(data) == 0 {
		return
	}
	// A reader that never quite empties the queue must not grow it without
	// bound: slide down once the consumed prefix is at least the live part.
	if s.rcvHead > 0 && s.rcvHead >= len(s.rcvChunks)-s.rcvHead {
		s.rcvChunks, s.rcvHead = slices.Delete(s.rcvChunks, 0, s.rcvHead), 0
	}
	// Do not coalesce chunks with different offload verdicts (§4.3). The
	// array comes from the stack's spares, grows to the connection's working
	// depth once and is kept until the stream ends (freeRcvQueue).
	n := len(s.rcvChunks)
	if cap(s.rcvChunks) == 0 {
		s.rcvChunks = s.stack.spares.Chunks()
	}
	s.rcvChunks = slices.Grow(s.rcvChunks, 1)[:n+1]
	s.rcvChunks[n] = Chunk{Seq: seq, Data: data, Flags: flags}
	s.rcvBufUsed += len(data)
	s.rcvNxt = seq + uint32(len(data))
}

// freeRcvQueue hands the receive queue's array, and the out-of-order
// list's, to the stack's spares once the peer's FIN is in and the reader
// has taken every chunk: nothing can be queued any more, and a segment
// still on the out-of-order list lies past the FIN.
func (s *Socket) freeRcvQueue() {
	if s.peerFin && s.rcvHead == len(s.rcvChunks) {
		s.stack.spares.PutChunks(s.rcvChunks)
		s.stack.spares.PutChunks(s.ooo)
		s.rcvChunks, s.rcvHead, s.ooo = nil, 0, nil
	}
}

// keepUnread gives the chunk processData queued at seq — bytes of the
// arriving frame — a copy of its own if OnReadable left it in the queue: no
// reader yet, a reader that stopped reading, or one that reads later. Only
// segments drained from the out-of-order list can sit behind it, so the
// walk back from the tail is short.
func (s *Socket) keepUnread(seq uint32) {
	for i := len(s.rcvChunks) - 1; i >= s.rcvHead && !seqLT(s.rcvChunks[i].Seq, seq); i-- {
		if c := &s.rcvChunks[i]; c.Seq == seq {
			c.Data = append([]byte(nil), c.Data...)
			return
		}
	}
}

// insertOOO buffers an out-of-order segment, keeping the list sorted by
// seq. Exact duplicates are dropped and reported (for DSACK); overlaps are
// allowed and trimmed at drain time. The list's array comes from the
// stack's spares at the connection's first hole and is kept, drained in
// place, until the stream ends (freeRcvQueue).
func (s *Socket) insertOOO(seg Chunk) (dup bool) {
	pos := len(s.ooo)
	for i, o := range s.ooo {
		if seg.Seq == o.Seq && len(seg.Data) <= len(o.Data) {
			return true
		}
		if seqLT(seg.Seq, o.Seq) {
			pos = i
			break
		}
	}
	if cap(s.ooo) == 0 {
		s.ooo = s.stack.spares.Chunks()
	}
	s.ooo = append(s.ooo, Chunk{})
	copy(s.ooo[pos+1:], s.ooo[pos:])
	s.ooo[pos] = seg
	return false
}

// drainOOO delivers the out-of-order segments the stream has reached and
// slides the rest to the front of the list's array, so the array keeps its
// capacity for the next hole.
func (s *Socket) drainOOO() {
	n := 0
	for ; n < len(s.ooo) && !seqLT(s.rcvNxt, s.ooo[n].Seq); n++ {
		seg := s.ooo[n]
		if skip := s.rcvNxt - seg.Seq; int(skip) < len(seg.Data) {
			s.deliver(s.rcvNxt, seg.Data[skip:], seg.Flags)
		}
	}
	if n > 0 {
		left := copy(s.ooo, s.ooo[n:])
		clear(s.ooo[left:])
		s.ooo = s.ooo[:left]
	}
	if s.finRcvdSeq != 0 && s.rcvNxt == s.finRcvdSeq {
		s.handleFin(s.finRcvdSeq)
		s.finRcvdSeq = 0
	}
}

// DebugString renders the socket's transmission state for diagnostics.
func (s *Socket) DebugString() string {
	return fmt.Sprintf("state=%s sndUna=%d sndNxt=%d buf=%d cwnd=%d ssthresh=%d peerWnd=%d rto=%v rtoArmed=%v inRec=%v dupAcks=%d sacked=%d rcvNxt=%d ooo=%d rcvUsed=%d",
		s.state, s.sndUna, s.sndNxt, s.sndLen, s.cc.Cwnd(), s.cc.Ssthresh(),
		s.peerWindow, s.rto, s.rtoTimer.Pending(), s.inRecovery, s.dupAcks,
		s.sb.sackedBytes(), s.rcvNxt, len(s.ooo), s.rcvBufUsed)
}
