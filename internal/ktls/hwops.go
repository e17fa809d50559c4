package ktls

import (
	"fmt"

	"repro/internal/cycles"
	"repro/internal/gcm"
	"repro/internal/meta"
	"repro/internal/offload"
)

// HW is the static NIC-side TLS state for one direction of a flow: the key
// schedule and session IV installed at l5o_create time (§4.1), plus the
// device ledger that NIC-side crypto work is charged to.
type HW struct {
	cipher *gcm.Cipher
	iv     [gcm.NonceSize]byte
	model  *cycles.Model
	ledger *cycles.Ledger
}

// NewHW builds the static state from an AES key and session IV.
func NewHW(key []byte, iv [gcm.NonceSize]byte, model *cycles.Model, ledger *cycles.Ledger) (*HW, error) {
	h := new(HW)
	if err := h.init(key, iv, model, ledger); err != nil {
		return nil, err
	}
	return h, nil
}

// init is NewHW in place, for the HW inside a flow context.
func (h *HW) init(key []byte, iv [gcm.NonceSize]byte, model *cycles.Model, ledger *cycles.Ledger) error {
	c, err := gcm.NewCached(key)
	if err != nil {
		return fmt.Errorf("ktls: %w", err)
	}
	*h = HW{cipher: c, iv: iv, model: model, ledger: ledger}
	return nil
}

// mustBeLive is the programmer-error assert behind Body, Trailer and
// ReplayBody: the engine calls them only between BeginMessage (or
// ResumeMessage) and EndMessage/AbortMessage.
func mustBeLive(live bool, call string) {
	if !live {
		panic("ktls: " + call + " outside a message")
	}
}

// TxOps is the NIC-side transmit crypto: it encrypts record bodies in place
// and fills the dummy ICV the software left behind (§5.2). It implements
// offload.TxOps.
type TxOps struct {
	hw *HW
	// stream is the record in flight, held by value and re-initialised in
	// place at each BeginMessage; live says whether there is one.
	stream   gcm.Stream
	live     bool
	tag      [TagLen]byte
	tagReady bool
	scratch  []byte
}

// NewTxOps creates the transmit ops for one flow.
func NewTxOps(hw *HW) *TxOps {
	o := new(TxOps)
	o.init(hw)
	return o
}

// init is NewTxOps in place, for the ops inside a flow context. A recycled
// context keeps its replay scratch, which is written before it is read.
func (o *TxOps) init(hw *HW) { *o = TxOps{hw: hw, scratch: o.scratch} }

var _ offload.TxOps = (*TxOps)(nil)

// HeaderLen implements offload.TxOps.
func (o *TxOps) HeaderLen() int { return HeaderLen }

// ParseHeader implements offload.TxOps.
func (o *TxOps) ParseHeader(hdr []byte) (offload.MsgLayout, bool) { return ParseHeader(hdr) }

// BeginMessage implements offload.TxOps.
func (o *TxOps) BeginMessage(_ offload.MsgLayout, hdr []byte, msgIndex uint64) {
	nonce := RecordNonce(o.hw.iv, msgIndex)
	o.hw.cipher.InitStream(&o.stream, gcm.Seal, nonce[:], hdr)
	o.live = true
	o.tagReady = false
}

// Body implements offload.TxOps: encrypt in place.
func (o *TxOps) Body(_ uint32, data []byte, _ int) {
	mustBeLive(o.live, "TxOps.Body")
	o.hw.ledger.Charge(cycles.NIC, cycles.Encrypt, o.hw.model.GCMCycles(len(data)), len(data))
	o.stream.Update(data, data)
}

// Trailer implements offload.TxOps: overwrite the dummy ICV with the tag.
func (o *TxOps) Trailer(_ uint32, data []byte, off int) {
	mustBeLive(o.live, "TxOps.Trailer")
	if !o.tagReady {
		o.tag = o.stream.Tag()
		o.tagReady = true
	}
	copy(data, o.tag[off:off+len(data)])
}

// EndMessage implements offload.TxOps.
func (o *TxOps) EndMessage() bool {
	o.live = false
	return true
}

// AbortMessage implements offload.TxOps.
func (o *TxOps) AbortMessage() { o.live = false }

// ReplayBody implements offload.TxOps: during context recovery the engine
// re-encrypts the record prefix (read back from host memory) into a scratch
// buffer purely to rebuild the stream's counter and GHASH state. The
// scratch has TagLen bytes to spare, so the replay takes the stream's fused
// pass as Body does.
func (o *TxOps) ReplayBody(data []byte, _ int) {
	mustBeLive(o.live, "TxOps.ReplayBody")
	if cap(o.scratch) < len(data)+TagLen {
		o.scratch = make([]byte, len(data)+TagLen)
	}
	o.hw.ledger.Charge(cycles.NIC, cycles.Encrypt, o.hw.model.GCMCycles(len(data)), len(data))
	o.stream.Update(o.scratch[:len(data)], data)
}

// RxOps is the NIC-side receive crypto: it decrypts record bodies in place,
// verifies ICVs, and reports the per-packet decrypted/authenticated bits
// the driver turns into SKB flags (§5.2). It implements offload.RxOps.
//
// When records carry a stacked L5P (NVMe-TCP over TLS, §5.3), decrypted
// body ranges are emitted to the inner offload engine through inner, tagged
// with their wire sequence numbers; discontinuities in the decrypted stream
// are announced so the inner engine falls into its own recovery.
type RxOps struct {
	hw     *HW
	stream gcm.Stream // by value, as in TxOps
	live   bool
	blind  bool // prefix skipped: ICV cannot be checked

	wireTag  [TagLen]byte
	wireTagN int

	inner       innerFeed
	emitDiscont bool
	// noPartial disables mid-record (blind) resumption: resumed records
	// are left untouched for full software fallback — the ablation that
	// quantifies §5.2's partial-offload handling.
	noPartial    bool
	skipMsg      bool
	skippedInPkt bool // any bytes this packet belonged to a skipped record

	innerSeen bool
	innerAnd  meta.RxFlags
}

// innerFeed is where RxOps emits each decrypted body range for a stacked
// inner engine: the Conn, which passes it to the engine SetInnerRxEngine
// stacked on it and returns that engine's verdict flags for the range.
type innerFeed interface {
	emitToInner(seq uint32, plain []byte, contiguous bool) meta.RxFlags
}

// NewRxOps creates the receive ops for one flow. inner, if non-nil, is the
// Conn whose stacked inner engine receives each decrypted body range.
func NewRxOps(hw *HW, inner innerFeed) *RxOps {
	o := new(RxOps)
	o.init(hw, inner)
	return o
}

// init is NewRxOps in place, for the ops inside a flow context.
func (o *RxOps) init(hw *HW, inner innerFeed) {
	*o = RxOps{hw: hw, inner: inner, emitDiscont: true}
}

// NewRxOpsNoPartial is the partial-offload ablation: records the engine
// would blind-resume are skipped entirely instead, leaving their bytes for
// the full software path.
func NewRxOpsNoPartial(hw *HW) *RxOps {
	return &RxOps{hw: hw, emitDiscont: true, noPartial: true}
}

var _ offload.RxOps = (*RxOps)(nil)

// HeaderLen implements offload.RxOps.
func (o *RxOps) HeaderLen() int { return HeaderLen }

// ParseHeader implements offload.RxOps.
func (o *RxOps) ParseHeader(hdr []byte) (offload.MsgLayout, bool) { return ParseHeader(hdr) }

// BeginMessage implements offload.RxOps.
func (o *RxOps) BeginMessage(_ offload.MsgLayout, hdr []byte, msgIndex uint64) {
	if o.noPartial && o.skippedInPkt {
		// The record begins inside a packet that already carries skipped
		// ciphertext; the whole packet will be flagged unprocessed, so
		// decrypting this record's prefix would strand plaintext behind a
		// cleared flag. Skip this record entirely as well.
		o.skipMsg = true
		o.blind = true
		o.wireTagN = 0
		return
	}
	nonce := RecordNonce(o.hw.iv, msgIndex)
	o.hw.cipher.InitStream(&o.stream, gcm.Open, nonce[:], hdr)
	o.live = true
	o.blind = false
	o.skipMsg = false
	o.wireTagN = 0
}

// ResumeMessage implements offload.RxOps: the record's first skip body
// bytes were never seen, so the GHASH is invalid; decrypt-only from here.
func (o *RxOps) ResumeMessage(_ offload.MsgLayout, hdr []byte, msgIndex uint64, skip int) {
	if o.noPartial {
		o.skipMsg = true
		o.skippedInPkt = true
		o.blind = true
		o.wireTagN = 0
		return
	}
	nonce := RecordNonce(o.hw.iv, msgIndex)
	o.hw.cipher.InitStream(&o.stream, gcm.Open, nonce[:], hdr)
	o.live = true
	o.stream.Skip(skip)
	o.blind = true
	o.wireTagN = 0
	o.emitDiscont = true
}

// Body implements offload.RxOps: decrypt in place and emit plaintext to the
// stacked engine, if any.
func (o *RxOps) Body(seq uint32, data []byte, _ int) {
	if o.skipMsg {
		o.skippedInPkt = true
		return
	}
	mustBeLive(o.live, "RxOps.Body")
	o.hw.ledger.Charge(cycles.NIC, cycles.Decrypt, o.hw.model.GCMCycles(len(data)), len(data))
	o.stream.Update(data, data)
	if o.inner != nil {
		flags := o.inner.emitToInner(seq, data, !o.emitDiscont)
		o.emitDiscont = false
		if !o.innerSeen {
			o.innerSeen = true
			o.innerAnd = flags
		} else {
			o.innerAnd &= flags
		}
	}
}

// Trailer implements offload.RxOps: collect the wire ICV.
func (o *RxOps) Trailer(_ uint32, data []byte, off int) {
	if o.skipMsg {
		o.skippedInPkt = true
		return
	}
	copy(o.wireTag[off:], data)
	o.wireTagN += len(data)
}

// EndMessage implements offload.RxOps.
func (o *RxOps) EndMessage() bool {
	o.live = false
	o.skipMsg = false
	if o.blind {
		return true // check skipped; software decides via decrypted bits
	}
	if o.wireTagN != TagLen {
		return false
	}
	return o.stream.Verify(o.wireTag[:])
}

// AbortMessage implements offload.RxOps.
func (o *RxOps) AbortMessage() {
	o.live = false
	o.emitDiscont = true
}

// NoteDiscontinuity implements offload.RxOps.
func (o *RxOps) NoteDiscontinuity() { o.emitDiscont = true }

// PacketVerdict implements offload.RxOps.
func (o *RxOps) PacketVerdict(processed, checksOK bool) meta.RxFlags {
	var f meta.RxFlags
	if o.skippedInPkt {
		// Some of the packet's bytes were left as ciphertext (a skipped
		// record): claim nothing for the whole packet.
		o.skippedInPkt = false
		o.innerSeen = false
		o.innerAnd = 0
		return 0
	}
	if processed {
		f |= meta.TLSOffloaded | meta.TLSDecrypted
		if checksOK {
			f |= meta.TLSAuthOK
		}
		if o.innerSeen {
			f |= o.innerAnd & (meta.NVMeOffloaded | meta.NVMeCRCOK | meta.NVMePlaced)
		}
	}
	o.innerSeen = false
	o.innerAnd = 0
	return f
}
