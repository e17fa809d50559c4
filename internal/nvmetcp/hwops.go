package nvmetcp

import (
	"encoding/binary"

	"repro/internal/crc32c"
	"repro/internal/cycles"
	"repro/internal/meta"
	"repro/internal/offload"
)

// RRTable is the request-response state the NIC keeps for copy offload
// (§4.1's l5o_add_rr_state / l5o_del_rr_state): a CID→destination-buffer
// map. The host registers a buffer before sending a read command; when the
// matching response streams through the NIC, its payload is DMA-written
// directly into the buffer (Fig. 9) and the packets are flagged NVMePlaced.
type RRTable struct {
	m map[uint16][]byte
	// Adds and Dels count table updates for experiments.
	Adds, Dels uint64
}

// NewRRTable returns an empty table.
func NewRRTable() *RRTable { return &RRTable{m: make(map[uint16][]byte)} }

// Add registers the destination buffer for a CID's response data.
func (t *RRTable) Add(cid uint16, buf []byte) {
	t.m[cid] = buf
	t.Adds++
}

// Del removes a CID's state after its response completes.
func (t *RRTable) Del(cid uint16) {
	delete(t.m, cid)
	t.Dels++
}

func (t *RRTable) get(cid uint16) []byte { return t.m[cid] }

// RxOps is the NIC-side NVMe-TCP receive offload: CRC32C data-digest
// verification and direct data placement. It implements offload.RxOps.
type RxOps struct {
	model  *cycles.Model
	ledger *cycles.Ledger
	rr     *RRTable
	// place and crc enable the two sub-offloads independently (the paper
	// evaluates them cumulatively in Table 4).
	place bool
	crc   bool

	hdr     Header
	crcAcc  uint32
	blind   bool
	dest    []byte // where this message's data is placed, nil when it is not
	wireDg  [DigestLen]byte
	wireDgN int

	// Per-packet placement accounting for the NVMePlaced verdict bit.
	bodyBytes   int
	placedBytes int
}

// NewRxOps creates the receive ops with both sub-offloads enabled. rr may
// be nil to disable placement (digest-only offload).
func NewRxOps(model *cycles.Model, ledger *cycles.Ledger, rr *RRTable) *RxOps {
	o := new(RxOps)
	o.init(model, ledger, rr, true, true)
	return o
}

// init makes o the receive ops in place, with the copy (placement) and CRC
// sub-offloads enabled independently.
func (o *RxOps) init(model *cycles.Model, ledger *cycles.Ledger, rr *RRTable, place, crc bool) {
	if !place {
		rr = nil
	}
	*o = RxOps{model: model, ledger: ledger, rr: rr, place: place, crc: crc}
}

var _ offload.RxOps = (*RxOps)(nil)

// HeaderLen implements offload.RxOps.
func (o *RxOps) HeaderLen() int { return HeaderLen }

// ParseHeader implements offload.RxOps.
func (o *RxOps) ParseHeader(hdr []byte) (offload.MsgLayout, bool) { return ParseHeader(hdr) }

// BeginMessage implements offload.RxOps.
func (o *RxOps) BeginMessage(_ offload.MsgLayout, hdr []byte, _ uint64) {
	o.begin(hdr, false)
}

// ResumeMessage implements offload.RxOps: placement can continue (offsets
// are known) but the digest check is impossible.
func (o *RxOps) ResumeMessage(_ offload.MsgLayout, hdr []byte, _ uint64, _ int) {
	o.begin(hdr, true)
}

func (o *RxOps) begin(hdr []byte, blind bool) {
	o.hdr = Decode(hdr)
	o.crcAcc = 0
	o.blind = blind
	o.wireDgN = 0
	o.dest = nil
	if o.rr != nil && o.hdr.Type == TypeResp {
		// A response that does not fit its registered buffer is not placed.
		o.dest, _ = o.hdr.window(o.rr.get(o.hdr.CID))
	}
}

// Body implements offload.RxOps: digest and, for responses with registered
// buffers, direct placement.
func (o *RxOps) Body(_ uint32, data []byte, off int) {
	o.bodyBytes += len(data)
	if o.crc {
		o.ledger.Charge(cycles.NIC, cycles.CRC, o.model.CRCCycles(len(data)), len(data))
		if !o.blind {
			o.crcAcc = crc32c.Update(o.crcAcc, data)
		}
	}
	if o.dest != nil && off+len(data) <= len(o.dest) {
		o.ledger.Charge(cycles.NIC, cycles.Copy, 0, len(data))
		copy(o.dest[off:], data)
		o.placedBytes += len(data)
	}
}

// Trailer implements offload.RxOps: collect the wire data digest.
func (o *RxOps) Trailer(_ uint32, data []byte, off int) {
	copy(o.wireDg[off:], data)
	o.wireDgN += len(data)
}

// EndMessage implements offload.RxOps.
func (o *RxOps) EndMessage() bool {
	if !o.crc {
		// The CRC sub-offload is disabled: report failure so software
		// always verifies the digest itself.
		return o.hdr.DataLen == 0
	}
	if o.blind {
		return true
	}
	if o.hdr.DataLen == 0 {
		return true
	}
	if o.wireDgN != DigestLen {
		return false
	}
	return binary.BigEndian.Uint32(o.wireDg[:]) == o.crcAcc
}

// AbortMessage implements offload.RxOps.
func (o *RxOps) AbortMessage() { o.dest = nil }

// NoteDiscontinuity implements offload.RxOps (no stacked consumer below
// NVMe-TCP).
func (o *RxOps) NoteDiscontinuity() {}

// PacketVerdict implements offload.RxOps.
func (o *RxOps) PacketVerdict(processed, checksOK bool) meta.RxFlags {
	var f meta.RxFlags
	if processed {
		f |= meta.NVMeOffloaded
		if checksOK {
			f |= meta.NVMeCRCOK
		}
		if o.placedBytes == o.bodyBytes {
			// All payload bytes this packet landed in their block-layer
			// buffers; software may skip the memcpy for this chunk.
			f |= meta.NVMePlaced
		}
	}
	o.bodyBytes, o.placedBytes = 0, 0
	return f
}

// TxOps is the NIC-side NVMe-TCP transmit offload: it fills the dummy data
// digest the software left behind (§5.1). It implements offload.TxOps.
type TxOps struct {
	model  *cycles.Model
	ledger *cycles.Ledger

	hdr     Header
	crc     uint32
	dg      [DigestLen]byte
	dgReady bool
}

var _ offload.TxOps = (*TxOps)(nil)

// HeaderLen implements offload.TxOps.
func (o *TxOps) HeaderLen() int { return HeaderLen }

// ParseHeader implements offload.TxOps.
func (o *TxOps) ParseHeader(hdr []byte) (offload.MsgLayout, bool) { return ParseHeader(hdr) }

// BeginMessage implements offload.TxOps.
func (o *TxOps) BeginMessage(_ offload.MsgLayout, hdr []byte, _ uint64) {
	o.hdr = Decode(hdr)
	o.crc = 0
	o.dgReady = false
}

// Body implements offload.TxOps.
func (o *TxOps) Body(_ uint32, data []byte, _ int) {
	o.ledger.Charge(cycles.NIC, cycles.CRC, o.model.CRCCycles(len(data)), len(data))
	o.crc = crc32c.Update(o.crc, data)
}

// ReplayBody implements offload.TxOps.
func (o *TxOps) ReplayBody(data []byte, _ int) {
	o.ledger.Charge(cycles.NIC, cycles.CRC, o.model.CRCCycles(len(data)), len(data))
	o.crc = crc32c.Update(o.crc, data)
}

// Trailer implements offload.TxOps: overwrite the dummy digest.
func (o *TxOps) Trailer(_ uint32, data []byte, off int) {
	if !o.dgReady {
		binary.BigEndian.PutUint32(o.dg[:], o.crc)
		o.dgReady = true
	}
	copy(data, o.dg[off:off+len(data)])
}

// EndMessage implements offload.TxOps.
func (o *TxOps) EndMessage() bool { return true }

// AbortMessage implements offload.TxOps.
func (o *TxOps) AbortMessage() {}
