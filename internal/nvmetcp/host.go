package nvmetcp

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"repro/internal/blockdev"
	"repro/internal/crc32c"
	"repro/internal/cycles"
	"repro/internal/meta"
	"repro/internal/offload"
	"repro/internal/stream"
	"repro/internal/tcpip"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Device is the slice of the NIC driver interface NVMe-TCP needs
// (Listing 1 narrowed). *nic.NIC implements it.
type Device interface {
	AttachTx(flow wire.FlowID, e *offload.TxEngine)
	AttachRx(flow wire.FlowID, e *offload.RxEngine)
	DetachTx(flow wire.FlowID)
	DetachRx(flow wire.FlowID)
}

// HostStats counts initiator-side events, in particular the software
// work the receive offloads eliminate (copy and CRC of §5.1).
type HostStats struct {
	Reads  uint64
	Writes uint64
	PDUsRx uint64

	BytesCopied   uint64 // software memcpy into block-layer buffers
	BytesPlaced   uint64 // NIC direct placement made the memcpy a no-op
	CRCSwBytes    uint64 // software data-digest computation
	CRCSkipped    uint64 // PDUs whose digest check the NIC already did
	DigestErrors  uint64
	FramingErrors uint64 // unparseable capsule stream: association dead

	ResyncResponses uint64
}

type request struct {
	buf       []byte
	remaining int
	isWrite   bool
	issuedAt  time.Duration // virtual issue time (valid when telemetry on)
	done      func(error)
}

// Host is the NVMe-TCP initiator: it maps block reads and writes onto
// capsules over the transport, with optional transmit digest offload and
// receive copy+CRC offload.
type Host struct {
	tr     stream.Stream
	model  *cycles.Model
	ledger *cycles.Ledger

	nextCID uint16
	pending map[uint16]*request

	// Receive offload.
	rr       *RRTable
	rxEngine *offload.RxEngine

	// Transmit digest offload (plain-TCP transports only).
	txOffloaded bool
	retain      *txRetainer

	// Receive assembly.
	asm              pduAssembler
	rxIdx            uint64
	pendingResync    uint32
	hasPendingResync bool

	outq [][]byte

	// WorkingSetBytes models the workload's resident set for the copy
	// cost (beyond the LLC, copies hit DRAM — Fig. 10's depth cliff).
	WorkingSetBytes int

	// dead marks an association whose capsule stream became unparseable;
	// no further PDUs are processed.
	dead bool

	// OnError receives fatal association errors (malformed framing from
	// corruption). All in-flight requests complete with the error first.
	OnError func(error)

	trace    *telemetry.Tracer
	traceTid string
	latHist  *telemetry.Histogram

	// Stats is exported for experiments; treat as read-only.
	Stats HostStats
}

// NewHost creates an initiator over an established transport.
func NewHost(tr stream.Stream) *Host {
	h := &Host{
		tr:      tr,
		model:   tr.Model(),
		ledger:  tr.Ledger(),
		pending: make(map[uint16]*request),
	}
	tr.SetOnData(h.onData)
	tr.SetOnDrain(func() { h.pump() })
	return h
}

// EnableTelemetry hooks the initiator into the run's telemetry: each
// request becomes a span on the tid track and its issue→completion time
// feeds the "nvme.request_latency_ns" histogram. Either may be nil.
func (h *Host) EnableTelemetry(tr *telemetry.Tracer, reg *telemetry.Registry, tid string) {
	h.trace = tr
	h.traceTid = tid
	if reg != nil {
		h.latHist = reg.Histogram("nvme.request_latency_ns")
		reg.RegisterCounters(tid, &h.Stats)
	}
}

// EnableRxOffload installs the receive copy+CRC offload directly on the
// NIC (plain NVMe-TCP over TCP).
func (h *Host) EnableRxOffload(dev Device) {
	e := h.CreateRxEngine(h.tr.ReadSeq())
	dev.AttachRx(h.tr.Flow().Reverse(), e)
}

// CreateRxEngine builds the receive engine for a plain TCP transport
// without attaching it.
func (h *Host) CreateRxEngine(startSeq uint32) *offload.RxEngine {
	return h.CreateRxEngineParts(startSeq, true, true)
}

// CreateRxEngineParts builds the receive engine with the copy (placement)
// and CRC sub-offloads selectable independently (Table 4's cumulative
// offload study).
func (h *Host) CreateRxEngineParts(startSeq uint32, place, crc bool) *offload.RxEngine {
	rr := NewRRTable()
	if place {
		h.rr = rr
	}
	ops := NewRxOpsParts(h.model, h.ledger, rr, place, crc)
	h.rxEngine = offload.NewRxEngine(ops, startSeq, h.resyncRequested)
	h.rxEngine.SetFallbackPolicy(offload.DefaultFallbackPolicy())
	return h.rxEngine
}

// CreateSparseRxEngine builds the receive engine for a stacked transport
// (NVMe over TLS, §5.3); hand it to ktls.Conn.SetInnerRxEngine.
func (h *Host) CreateSparseRxEngine() *offload.RxEngine {
	return h.CreateSparseRxEngineParts(true, true)
}

// CreateSparseRxEngineParts is CreateSparseRxEngine with the copy and CRC
// sub-offloads selectable independently.
func (h *Host) CreateSparseRxEngineParts(place, crc bool) *offload.RxEngine {
	rr := NewRRTable()
	if place {
		h.rr = rr
	}
	ops := NewRxOpsParts(h.model, h.ledger, rr, place, crc)
	h.rxEngine = offload.NewSparseRxEngine(ops, h.resyncRequested)
	h.rxEngine.SetFallbackPolicy(offload.DefaultFallbackPolicy())
	return h.rxEngine
}

// RxEngine exposes the receive engine for tests and experiments.
func (h *Host) RxEngine() *offload.RxEngine { return h.rxEngine }

// EnableTxOffload installs the transmit data-digest offload (write-path
// CRC, §5.1). Only meaningful over a plain TCP transport.
func (h *Host) EnableTxOffload(dev Device) {
	h.txOffloaded = true
	h.retain = &txRetainer{model: h.model, ledger: h.ledger, acked: h.tr.AckedSeq}
	e := offload.NewTxEngine(NewTxOps(h.model, h.ledger), h.retain, h.tr.WriteSeq())
	dev.AttachTx(h.tr.Flow(), e)
}

func (h *Host) resyncRequested(seq uint32) {
	h.pendingResync = seq
	h.hasPendingResync = true
	h.ledger.Charge(cycles.HostDriver, cycles.Driver, h.model.ResyncUpcallCost, 0)
}

// ReadBlocks issues a read of count blocks at lba into buf (which must be
// count*BlockSize long); done fires on completion. With receive offload the
// buffer is registered in the NIC's RR table so the response payload is
// placed directly (Fig. 9).
func (h *Host) ReadBlocks(lba uint64, count int, buf []byte, done func(error)) {
	if len(buf) < count*blockdev.BlockSize {
		done(fmt.Errorf("nvmetcp: buffer too small"))
		return
	}
	h.Stats.Reads++
	cid := h.allocCID()
	h.pending[cid] = &request{buf: buf, remaining: count * blockdev.BlockSize,
		issuedAt: h.trace.Now(), done: done}
	if h.rr != nil {
		// l5o_add_rr_state: must reach the NIC before the request (§4.1).
		h.rr.Add(cid, buf)
		h.ledger.Charge(cycles.HostDriver, cycles.Driver, h.model.DriverPerOffloadDescr, 0)
	}
	hdr := &Header{Type: TypeCmd, CID: cid, Op: OpRead, Offset: lba,
		DataLen: 0}
	// Encode the read size in a tiny payload-free command: reuse Offset for
	// LBA and carry the block count in the (otherwise unused) upper bits.
	hdr.Offset = lba | uint64(count)<<40
	h.enqueue(Build(hdr, nil, false))
}

// WriteBlocks writes data (multiple of the block size) at lba.
func (h *Host) WriteBlocks(lba uint64, data []byte, done func(error)) {
	h.Stats.Writes++
	cid := h.allocCID()
	h.pending[cid] = &request{isWrite: true, issuedAt: h.trace.Now(), done: done}
	hdr := &Header{Type: TypeCmd, CID: cid, Op: OpWrite, Offset: lba, DataLen: len(data)}
	pdu := Build(hdr, data, h.txOffloaded)
	if h.txOffloaded {
		// Skip the software digest; the NIC fills it (§5.1).
	} else {
		h.ledger.Charge(cycles.HostL5P, cycles.CRC, h.model.CRCCycles(len(data)), len(data))
	}
	h.enqueue(pdu)
}

func (h *Host) allocCID() uint16 {
	for {
		h.nextCID++
		if _, busy := h.pending[h.nextCID]; !busy {
			return h.nextCID
		}
	}
}

// enqueue queues a capsule and pumps the transport.
func (h *Host) enqueue(pdu []byte) {
	h.ledger.Charge(cycles.HostL5P, cycles.L5PFraming, h.model.L5PPerMessage, 0)
	h.ledger.Charge(cycles.HostL5P, cycles.CRC, h.model.CRCCycles(BaseHeaderLen), BaseHeaderLen)
	h.outq = append(h.outq, pdu)
	h.pump()
}

func (h *Host) pump() {
	for len(h.outq) > 0 {
		pdu := h.outq[0]
		if h.tr.WriteSpace() < len(pdu) {
			return
		}
		if h.retain != nil {
			h.retain.addRecord(h.tr.WriteSeq(), pdu)
		}
		if n := h.tr.WriteZC(pdu); n != len(pdu) {
			panic("nvmetcp: short write despite space check")
		}
		h.outq = h.outq[1:]
	}
}

func (h *Host) onData(ch tcpip.Chunk) {
	if h.dead {
		return
	}
	h.asm.push(ch)
	for {
		chunks, layout, ok, err := h.asm.next()
		if err != nil {
			h.framingError(err)
			return
		}
		if !ok {
			return
		}
		h.handlePDU(chunks, layout)
		if h.dead {
			return
		}
	}
}

// framingError tears the association down gracefully: the stream can no
// longer be parsed, so every in-flight request fails (in CID order, for
// determinism) and the error is surfaced instead of delivering misframed
// bytes or crashing.
func (h *Host) framingError(err error) {
	h.dead = true
	h.Stats.FramingErrors++
	if h.rxEngine != nil {
		h.rxEngine.NoteAuthFailure()
	}
	cids := make([]int, 0, len(h.pending))
	for cid := range h.pending {
		cids = append(cids, int(cid))
	}
	sort.Ints(cids)
	for _, cid := range cids {
		if req, ok := h.pending[uint16(cid)]; ok {
			h.complete(uint16(cid), req, err)
		}
	}
	if h.OnError != nil {
		h.OnError(err)
	}
}

// handlePDU processes one complete capsule.
func (h *Host) handlePDU(chunks []tcpip.Chunk, layout offload.MsgLayout) {
	h.Stats.PDUsRx++
	h.ledger.Charge(cycles.HostL5P, cycles.L5PFraming, h.model.L5PPerMessage, 0)

	hdrBytes := flattenPrefix(chunks, HeaderLen)
	// Software always verifies the header digest (cheap, part of framing).
	h.ledger.Charge(cycles.HostL5P, cycles.CRC, h.model.CRCCycles(BaseHeaderLen), BaseHeaderLen)
	hdr := Decode(hdrBytes)
	pduStart := chunks[0].Seq

	h.answerResync(pduStart, layout.Total)

	if hdr.Type != TypeResp {
		return // initiators only receive responses
	}
	req, ok := h.pending[hdr.CID]
	if !ok {
		return // stale or duplicated completion
	}

	if req.isWrite || hdr.DataLen == 0 {
		if hdr.Op != StatusOK {
			h.complete(hdr.CID, req, fmt.Errorf("nvmetcp: status %#x", hdr.Op))
			return
		}
		h.complete(hdr.CID, req, nil)
		return
	}

	// Read data capsule: place payload into the block-layer buffer unless
	// the NIC already did (§5.1's copy offload), then verify the digest
	// unless the NIC already did (crc_ok bit).
	off := 0
	allOffloadedOK := true
	dataStart, dataEnd := HeaderLen, HeaderLen+hdr.DataLen
	for _, ch := range chunks {
		start, end := off, off+len(ch.Data)
		off = end
		if !ch.Flags.Has(meta.NVMeOffloaded | meta.NVMeCRCOK) {
			allOffloadedOK = false
		}
		lo, hi := max(start, dataStart), min(end, dataEnd)
		if lo >= hi {
			continue
		}
		dst := int(hdr.Offset) + lo - dataStart
		if dst+hi-lo > len(req.buf) {
			h.complete(hdr.CID, req, fmt.Errorf("nvmetcp: data overruns buffer"))
			return
		}
		if ch.Flags.Has(meta.NVMeOffloaded | meta.NVMePlaced) {
			// Zero-copy: source and destination addresses coincide; the
			// memcpy is skipped (§5.1).
			h.Stats.BytesPlaced += uint64(hi - lo)
		} else {
			copy(req.buf[dst:], ch.Data[lo-start:hi-start])
			h.ledger.Charge(cycles.HostL5P, cycles.Copy,
				h.model.CopyCycles(hi-lo, h.WorkingSetBytes), hi-lo)
			h.Stats.BytesCopied += uint64(hi - lo)
		}
	}

	if allOffloadedOK {
		h.Stats.CRCSkipped++
	} else {
		got := crc32c.Checksum(req.buf[int(hdr.Offset) : int(hdr.Offset)+hdr.DataLen])
		h.ledger.Charge(cycles.HostL5P, cycles.CRC, h.model.CRCCycles(hdr.DataLen), hdr.DataLen)
		h.Stats.CRCSwBytes += uint64(hdr.DataLen)
		wireDg := flattenRange(chunks, dataEnd, dataEnd+DigestLen)
		if binary.BigEndian.Uint32(wireDg) != got {
			// Corrupt payload: the request fails, nothing is accepted, and
			// the receive engine degrades per its fallback policy.
			h.Stats.DigestErrors++
			if h.rxEngine != nil {
				h.rxEngine.NoteAuthFailure()
			}
			h.complete(hdr.CID, req, fmt.Errorf("nvmetcp: data digest mismatch CID %d", hdr.CID))
			return
		}
	}

	req.remaining -= hdr.DataLen
	if req.remaining <= 0 {
		h.complete(hdr.CID, req, nil)
	}
}

func (h *Host) complete(cid uint16, req *request, err error) {
	delete(h.pending, cid)
	if h.rr != nil && !req.isWrite {
		h.rr.Del(cid)
		h.ledger.Charge(cycles.HostDriver, cycles.Driver, h.model.DriverPerOffloadDescr, 0)
	}
	if h.trace.Enabled() && err == nil {
		h.latHist.Record(int64(h.trace.Now() - req.issuedAt))
		name := "nvme.read"
		if req.isWrite {
			name = "nvme.write"
		}
		h.trace.Span("l5p", name, h.traceTid, req.issuedAt, "cid", int64(cid))
	}
	if req.done != nil {
		req.done(err)
	}
}

// answerResync responds to an outstanding NIC header speculation once the
// software stream reaches it (§4.3).
func (h *Host) answerResync(pduStart uint32, total int) {
	defer func() { h.rxIdx++ }()
	if !h.hasPendingResync || h.rxEngine == nil {
		return
	}
	if int32(h.pendingResync-(pduStart+uint32(total))) >= 0 {
		return // the guess is further ahead; keep waiting
	}
	ok := h.pendingResync == pduStart
	h.hasPendingResync = false
	h.Stats.ResyncResponses++
	h.ledger.Charge(cycles.HostL5P, cycles.Driver, h.model.ResyncUpcallCost, 0)
	h.rxEngine.ResyncResponse(h.pendingResync, ok, h.rxIdx)
}

// txRetainer keeps transmitted capsules until fully acknowledged and
// serves the driver's recovery upcalls (§4.2), mirroring ktls.Conn's
// record retention.
type txRetainer struct {
	model  *cycles.Model
	ledger *cycles.Ledger
	acked  func() uint32
	recs   []txPDURec
	nextIx uint64
}

type txPDURec struct {
	wireStart uint32
	data      []byte
	index     uint64
}

func (r *txRetainer) addRecord(wireStart uint32, pdu []byte) {
	r.prune()
	r.recs = append(r.recs, txPDURec{wireStart: wireStart, data: pdu, index: r.nextIx})
	r.nextIx++
}

func (r *txRetainer) prune() {
	acked := r.acked()
	i := 0
	for i < len(r.recs) {
		rec := r.recs[i]
		if int32(rec.wireStart+uint32(len(rec.data))-acked) > 0 {
			break
		}
		i++
	}
	r.recs = r.recs[i:]
}

// MsgStateAt implements offload.TxSource.
func (r *txRetainer) MsgStateAt(seq uint32) (uint32, uint64, bool) {
	r.ledger.Charge(cycles.HostL5P, cycles.Driver, r.model.ResyncUpcallCost, 0)
	i := sort.Search(len(r.recs), func(i int) bool {
		return int32(r.recs[i].wireStart+uint32(len(r.recs[i].data))-seq) > 0
	})
	if i == len(r.recs) || int32(seq-r.recs[i].wireStart) < 0 {
		return 0, 0, false
	}
	return r.recs[i].wireStart, r.recs[i].index, true
}

// StreamBytes implements offload.TxSource. Ranges may span consecutive
// retained capsules; the copies are stitched.
func (r *txRetainer) StreamBytes(from, to uint32) ([]byte, error) {
	if from == to {
		return nil, nil
	}
	var out []byte
	cur := from
	for i := range r.recs {
		rec := &r.recs[i]
		lo := int32(cur - rec.wireStart)
		if lo < 0 || int(lo) >= len(rec.data) {
			continue
		}
		hi := int32(to - rec.wireStart)
		if int(hi) > len(rec.data) {
			hi = int32(len(rec.data))
		}
		out = append(out, rec.data[lo:hi]...)
		cur = rec.wireStart + uint32(hi)
		if cur == to {
			return out, nil
		}
	}
	return nil, fmt.Errorf("nvmetcp: stream range [%d,%d) not retained", from, to)
}

// pduAssembler reassembles capsules from annotated stream chunks.
type pduAssembler struct {
	inbuf    []tcpip.Chunk
	inbufLen int
}

func (a *pduAssembler) push(ch tcpip.Chunk) {
	if len(ch.Data) == 0 {
		return
	}
	a.inbuf = append(a.inbuf, ch)
	a.inbufLen += len(ch.Data)
}

// next returns the chunks of the next complete PDU, or ok=false if more
// bytes are needed. Malformed framing (a header whose magic or header
// digest does not verify — corruption that slipped past L4) returns an
// error: the byte stream can no longer be parsed and the association must
// be torn down rather than risk delivering misframed data.
func (a *pduAssembler) next() ([]tcpip.Chunk, offload.MsgLayout, bool, error) {
	if a.inbufLen < HeaderLen {
		return nil, offload.MsgLayout{}, false, nil
	}
	hdr := make([]byte, HeaderLen)
	n := 0
	for _, ch := range a.inbuf {
		n += copy(hdr[n:], ch.Data)
		if n == HeaderLen {
			break
		}
	}
	layout, ok := ParseHeader(hdr)
	if !ok {
		return nil, offload.MsgLayout{}, false,
			fmt.Errorf("nvmetcp: malformed PDU header % x", hdr)
	}
	if a.inbufLen < layout.Total {
		return nil, offload.MsgLayout{}, false, nil
	}
	return a.take(layout.Total), layout, true, nil
}

func (a *pduAssembler) take(n int) []tcpip.Chunk {
	var out []tcpip.Chunk
	for n > 0 {
		ch := a.inbuf[0]
		if len(ch.Data) <= n {
			out = append(out, ch)
			n -= len(ch.Data)
			a.inbufLen -= len(ch.Data)
			a.inbuf = a.inbuf[1:]
			continue
		}
		out = append(out, tcpip.Chunk{Seq: ch.Seq, Data: ch.Data[:n], Flags: ch.Flags})
		a.inbuf[0] = tcpip.Chunk{Seq: ch.Seq + uint32(n), Data: ch.Data[n:], Flags: ch.Flags}
		a.inbufLen -= n
		n = 0
	}
	return out
}

func flattenPrefix(chunks []tcpip.Chunk, n int) []byte {
	out := make([]byte, 0, n)
	for _, ch := range chunks {
		take := min(n-len(out), len(ch.Data))
		out = append(out, ch.Data[:take]...)
		if len(out) == n {
			break
		}
	}
	return out
}

func flattenRange(chunks []tcpip.Chunk, lo, hi int) []byte {
	out := make([]byte, 0, hi-lo)
	off := 0
	for _, ch := range chunks {
		start, end := off, off+len(ch.Data)
		off = end
		a, b := max(start, lo), min(end, hi)
		if a < b {
			out = append(out, ch.Data[a-start:b-start]...)
		}
	}
	return out
}
