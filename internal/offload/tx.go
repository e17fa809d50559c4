package offload

// TxOps is the L5P-specific transmit-side processing an engine drives:
// TLS record encryption/ICV fill or NVMe-TCP data-digest fill. L5P software
// "skips" the operation and passes the wrong bytes down; the Ops produce
// the correct ones on the wire (§3.1).
type TxOps interface {
	// HeaderLen is the fixed L5P message header size.
	HeaderLen() int
	// ParseHeader validates a complete header and returns the layout.
	ParseHeader(hdr []byte) (MsgLayout, bool)
	// BeginMessage starts a message. msgIndex counts messages since the
	// offload was created.
	BeginMessage(layout MsgLayout, hdr []byte, msgIndex uint64)
	// Body transforms in-sequence body bytes in place (e.g. encrypts);
	// seq is the wire sequence of data's first byte.
	Body(seq uint32, data []byte, off int)
	// Trailer fills trailer bytes in place with the computed integrity
	// value (the software wrote dummy bytes there, §5.1/§5.2).
	Trailer(seq uint32, data []byte, off int)
	// EndMessage completes the message. The returned integrity result is
	// meaningless on transmit and ignored (the signature matches RxOps so
	// one implementation can serve both directions).
	EndMessage() bool
	// AbortMessage discards in-flight message state.
	AbortMessage()
	// ReplayBody reprocesses prefix bytes during context recovery without
	// emitting output (recomputing cipher/digest state from DMA-read host
	// memory, Fig. 6).
	ReplayBody(data []byte, off int)
}

// TxSource is what the driver can reach during transmit context recovery:
// the L5P's seq→message map (l5o_get_tx_msgstate, §4.2) and the host
// memory holding unacknowledged stream bytes (read via DMA).
type TxSource interface {
	// MsgStateAt returns the start sequence and index of the message
	// containing seq. ok=false means the L5P no longer retains it.
	MsgStateAt(seq uint32) (msgStart uint32, msgIndex uint64, ok bool)
	// StreamBytes reads retained stream bytes [from, to) from host memory.
	StreamBytes(from, to uint32) ([]byte, error)
}

// TxStats counts transmit-engine events.
type TxStats struct {
	PktsProcessed    uint64
	PktsSkipped      uint64 // recovery impossible; packet sent unmodified
	MsgsCompleted    uint64
	Recoveries       uint64 // out-of-sequence context recoveries (§4.2)
	RecoveryDMABytes uint64 // host memory re-read during recovery (Fig 16b)
}

// TxEngine is the transmit-side hardware context for one flow, together
// with the driver's shadow of it (the driver checks the packet's sequence
// against the shadow before posting, §4.2 — folded into Process here).
type TxEngine struct {
	ops TxOps
	src TxSource

	expected uint32
	cur      msgCursor

	txTelemetryState

	// Stats is exported for experiments; treat as read-only.
	Stats TxStats
}

// NewTxEngine creates a transmit engine starting at startSeq, which must
// be an L5P message boundary.
func NewTxEngine(ops TxOps, src TxSource, startSeq uint32) *TxEngine {
	e := new(TxEngine)
	e.Init(ops, src, startSeq)
	return e
}

// Init is NewTxEngine in place, for an engine held inside a larger flow
// context (one allocation for the whole context, §4.1). It overwrites
// everything e held, so e must not be attached to a device.
func (e *TxEngine) Init(ops TxOps, src TxSource, startSeq uint32) {
	*e = TxEngine{ops: ops, src: src, expected: startSeq, cur: newCursor(ops)}
}

// Process runs the engine over one outgoing packet's payload, transforming
// it in place. It reports whether the offload was performed (false only if
// context recovery failed and the packet must carry software-prepared
// bytes — which, with a compliant L5P, does not happen).
func (e *TxEngine) Process(seq uint32, data []byte) bool {
	if len(data) == 0 {
		return true
	}
	if seq != e.expected {
		if !e.recover(seq) {
			e.Stats.PktsSkipped++
			return false
		}
	}
	e.Stats.PktsProcessed++
	e.walk(data, false)
	return true
}

// recover rebuilds the context to match a packet at seq. For a forward
// jump (new data sent after a retransmission) the engine simply replays
// the skipped stream range from host memory — its state is already valid
// at `expected`. For a backward jump (the retransmission itself) the
// driver asks the L5P for the enclosing message (l5o_get_tx_msgstate) and
// the engine replays that message's prefix (Fig. 6).
func (e *TxEngine) recover(seq uint32) bool {
	if e.src == nil {
		return false
	}
	msgStart, msgIndex, ok := e.src.MsgStateAt(seq)
	// A forward jump can be healed by replaying the skipped range from the
	// engine's current position — worthwhile when that gap is smaller than
	// the target message's prefix (e.g. the packet right after a short
	// retransmission). Both re-reads cross PCIe; take the cheaper one.
	if fwd := int32(seq - e.expected); fwd > 0 {
		prefix := int32(1 << 30)
		if ok {
			prefix = int32(seq - msgStart)
		}
		if fwd < prefix {
			if gap, err := e.src.StreamBytes(e.expected, seq); err == nil {
				e.Stats.Recoveries++
				e.Stats.RecoveryDMABytes += uint64(len(gap))
				e.recoveryHist.Record(int64(len(gap)))
				e.tr.Instant2("dma", "tx.recover.fwd", e.traceTid,
					"seq", int64(seq), "dma_bytes", int64(len(gap)))
				e.walk(gap, true)
				return true
			}
		}
	}
	if !ok {
		return false
	}
	e.Stats.Recoveries++
	if e.cur.inMsg {
		e.ops.AbortMessage()
	}
	e.cur.reset(msgIndex)
	e.expected = msgStart
	if msgStart == seq {
		e.recoveryHist.Record(0)
		e.tr.Instant2("dma", "tx.recover.msg", e.traceTid, "seq", int64(seq), "dma_bytes", 0)
		return true
	}
	prefix, err := e.src.StreamBytes(msgStart, seq)
	if err != nil {
		return false
	}
	e.Stats.RecoveryDMABytes += uint64(len(prefix))
	e.recoveryHist.Record(int64(len(prefix)))
	e.tr.Instant2("dma", "tx.recover.msg", e.traceTid,
		"seq", int64(seq), "dma_bytes", int64(len(prefix)))
	e.walk(prefix, true)
	return true
}

// walk advances the context over data. In sequence (replay false) the Ops
// transform the bytes in place; during recovery (replay true) data is the
// DMA-read prefix, which only rebuilds Ops state and produces no output.
func (e *TxEngine) walk(data []byte, replay bool) {
	c := &e.cur
	seq := e.expected
	e.expected += uint32(len(data))
	for len(data) > 0 {
		r, n, off, end := c.step(data)
		switch {
		case r == regHeader && c.inMsg:
			e.ops.BeginMessage(c.layout, c.header(), c.msgIndex)
		case r == regBody && replay:
			e.ops.ReplayBody(data[:n], off)
		case r == regBody:
			e.ops.Body(seq, data[:n], off)
		case r == regTrailer && !replay:
			e.ops.Trailer(seq, data[:n], off)
		case r == regBadHeader:
			// L5P software handed us a malformed stream (the retained copy
			// is authoritative, so on replay too this is an L5P bug): pass
			// the rest of these bytes through untouched, counting them.
			return
		}
		if end && replay {
			e.ops.AbortMessage()
		} else if end {
			e.ops.EndMessage()
			e.Stats.MsgsCompleted++
		}
		seq += uint32(n)
		data = data[n:]
	}
}
