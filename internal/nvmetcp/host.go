package nvmetcp

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/blockdev"
	"repro/internal/crc32c"
	"repro/internal/cycles"
	"repro/internal/l5p"
	"repro/internal/meta"
	"repro/internal/offload"
	"repro/internal/stream"
	"repro/internal/tcpip"
	"repro/internal/telemetry"
)

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
	next      *request // Host.free's link while the request is finished
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
	free    *request // finished requests, reused by the next ReadBlocks or WriteBlocks

	// Receive offload.
	rr       *RRTable
	rxEngine *offload.RxEngine
	resync   l5p.ResyncMailbox

	// Receive assembly.
	asm   l5p.Assembler
	rxIdx uint64 // index of the next capsule to be assembled

	out sendQueue

	// WorkingSetBytes models the workload's resident set for the copy
	// cost (beyond the LLC, copies hit DRAM — Fig. 10's depth cliff).
	WorkingSetBytes int

	// dead marks an association whose capsule stream became unparseable;
	// no further PDUs are processed.
	dead bool

	// OnError receives the fatal association error (malformed framing from
	// corruption, or the stream beneath failing: a TLS record that does not
	// authenticate). All in-flight requests complete with the error first.
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
		resync:  l5p.ResyncMailbox{Model: tr.Model(), Ledger: tr.Ledger()},
		asm:     l5p.Assembler{HeaderLen: HeaderLen, Parse: ParseHeader},
	}
	tr.SetOnData(h.onData)
	tr.SetOnError(func(err error) { h.fail(fmt.Errorf("nvmetcp: %w", err)) })
	h.out.init(tr, h.fail)
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

// EnableRxOffload installs the receive offload directly on the NIC (plain
// NVMe-TCP over TCP), with the copy (placement) and CRC sub-offloads
// selectable independently (Table 4's cumulative offload study).
func (h *Host) EnableRxOffload(dev l5p.Device, place, crc bool) {
	ctx := h.newRxContext(place, crc)
	ctx.engine.Init(&ctx.ops, h.tr.ReadSeq(), &h.resync)
	dev.AttachRx(h.tr.Flow().Reverse(), h.adopt(&ctx.engine))
}

// CreateSparseRxEngine builds the receive engine for a stacked transport
// (NVMe over TLS, §5.3), sub-offloads as for EnableRxOffload; hand it to
// ktls.Conn.SetInnerRxEngine.
func (h *Host) CreateSparseRxEngine(place, crc bool) *offload.RxEngine {
	ctx := h.newRxContext(place, crc)
	ctx.engine.InitSparse(&ctx.ops, &h.resync)
	return h.adopt(&ctx.engine)
}

// rxContext is the host's whole receive offload context, one allocation
// (§4.1): the RR table, the NIC-side ops and the engine, which the caller
// initialises.
type rxContext struct {
	rr     RRTable
	ops    RxOps
	engine offload.RxEngine
}

// newRxContext builds the context's table and ops; with placement on, its
// RR table becomes the one ReadBlocks registers buffers in.
func (h *Host) newRxContext(place, crc bool) *rxContext {
	ctx := &rxContext{rr: RRTable{m: make(map[uint16][]byte)}}
	if place {
		h.rr = &ctx.rr
	}
	ctx.ops.init(h.model, h.ledger, &ctx.rr, place, crc)
	return ctx
}

func (h *Host) adopt(e *offload.RxEngine) *offload.RxEngine {
	e.SetFallbackPolicy(offload.DefaultFallbackPolicy())
	h.rxEngine = e
	return e
}

// RxEngine exposes the receive engine for tests and experiments.
func (h *Host) RxEngine() *offload.RxEngine { return h.rxEngine }

// EnableTxOffload installs the transmit data-digest offload (write-path
// CRC, §5.1). Over a transport other than a plain TCP socket it does
// nothing.
func (h *Host) EnableTxOffload(dev l5p.Device) { h.out.enableTxOffload(dev) }

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
	h.pending[cid] = h.newRequest(request{buf: buf, remaining: count * blockdev.BlockSize,
		issuedAt: h.trace.Now(), done: done})
	if h.rr != nil {
		// l5o_add_rr_state: must reach the NIC before the request (§4.1).
		h.rr.Add(cid, buf)
		h.ledger.Charge(cycles.HostDriver, cycles.Driver, h.model.DriverPerOffloadDescr, 0)
	}
	// The read size rides in a payload-free command (see EncodeReadCmd).
	h.out.send(&Header{Type: TypeCmd, CID: cid, Op: OpRead, Offset: EncodeReadCmd(lba, count)}, nil)
}

// WriteBlocks writes data (multiple of the block size) at lba.
func (h *Host) WriteBlocks(lba uint64, data []byte, done func(error)) {
	h.Stats.Writes++
	cid := h.allocCID()
	h.pending[cid] = h.newRequest(request{isWrite: true, issuedAt: h.trace.Now(), done: done})
	h.out.send(&Header{Type: TypeCmd, CID: cid, Op: OpWrite, Offset: lba, DataLen: len(data)}, data)
}

// newRequest returns r in a finished request's memory, or in new memory
// when none is free.
func (h *Host) newRequest(r request) *request {
	req := h.free
	if req == nil {
		req = new(request)
	} else {
		h.free = req.next
	}
	*req = r
	return req
}

func (h *Host) allocCID() uint16 {
	for {
		h.nextCID++
		if _, busy := h.pending[h.nextCID]; !busy {
			return h.nextCID
		}
	}
}

func (h *Host) onData(ch tcpip.Chunk) {
	if h.dead {
		return
	}
	h.asm.Push(ch)
	for !h.dead {
		chunks, total, err := h.asm.Next()
		if err != nil {
			// The stream can no longer be parsed: fail rather than
			// deliver misframed bytes.
			h.Stats.FramingErrors++
			if h.rxEngine != nil {
				h.rxEngine.NoteAuthFailure()
			}
			h.fail(fmt.Errorf("nvmetcp: %w", err))
			return
		}
		if chunks == nil {
			return
		}
		h.handlePDU(chunks, total)
	}
}

// fail tears the association down gracefully: every in-flight request
// fails (in CID order, for determinism) and the error is surfaced, once —
// a completion callback that writes to the dead stream fails it again.
func (h *Host) fail(err error) {
	if h.dead {
		return
	}
	h.dead = true
	for _, cid := range slices.Sorted(maps.Keys(h.pending)) {
		// A completion callback may already have retired a later request.
		if req, ok := h.pending[cid]; ok {
			h.complete(cid, req, err)
		}
	}
	if h.OnError != nil {
		h.OnError(err)
	}
}

// handlePDU processes one complete capsule.
func (h *Host) handlePDU(chunks []tcpip.Chunk, total int) {
	h.Stats.PDUsRx++
	h.ledger.Charge(cycles.HostL5P, cycles.L5PFraming, h.model.L5PPerMessage, 0)

	var hdrBytes [HeaderLen]byte
	// Software always verifies the header digest (cheap, part of framing).
	h.ledger.Charge(cycles.HostL5P, cycles.CRC, h.model.CRCCycles(BaseHeaderLen), BaseHeaderLen)
	hdr := Decode(l5p.AppendRange(hdrBytes[:0], chunks, 0, HeaderLen))

	// Answer an outstanding NIC header speculation once the software
	// stream reaches it (§4.3).
	if h.resync.Answer(h.rxEngine, chunks[0].Seq, total, h.rxIdx) {
		h.Stats.ResyncResponses++
	}
	h.rxIdx++

	if hdr.Type != TypeResp {
		return // initiators only receive responses
	}
	req, ok := h.pending[hdr.CID]
	if !ok {
		return // stale or duplicated completion
	}

	if req.isWrite || hdr.DataLen == 0 {
		var err error
		if hdr.Op != StatusOK {
			err = fmt.Errorf("nvmetcp: status %#x", hdr.Op)
		}
		h.complete(hdr.CID, req, err)
		return
	}

	// Read data capsule: place payload into the block-layer buffer unless
	// the NIC already did (§5.1's copy offload), then verify the digest
	// unless the NIC already did (crc_ok bit).
	dest, ok := hdr.window(req.buf)
	if !ok {
		h.complete(hdr.CID, req, fmt.Errorf("nvmetcp: data overruns buffer"))
		return
	}
	dataEnd := HeaderLen + hdr.DataLen
	for off, part := range l5p.Clip(chunks, HeaderLen, dataEnd) {
		n := len(part.Data)
		if part.Flags.Has(meta.NVMeOffloaded | meta.NVMePlaced) {
			// Zero-copy: source and destination addresses coincide; the
			// memcpy is skipped (§5.1).
			h.Stats.BytesPlaced += uint64(n)
		} else {
			copy(dest[off-HeaderLen:], part.Data)
			h.ledger.Charge(cycles.HostL5P, cycles.Copy, h.model.CopyCycles(n, h.WorkingSetBytes), n)
			h.Stats.BytesCopied += uint64(n)
		}
	}

	if all, _ := l5p.Verdict(chunks); all.Has(meta.NVMeOffloaded | meta.NVMeCRCOK) {
		h.Stats.CRCSkipped++
	} else {
		got := crc32c.Checksum(dest)
		h.ledger.Charge(cycles.HostL5P, cycles.CRC, h.model.CRCCycles(hdr.DataLen), hdr.DataLen)
		h.Stats.CRCSwBytes += uint64(hdr.DataLen)
		var wireDg [DigestLen]byte
		if binary.BigEndian.Uint32(l5p.AppendRange(wireDg[:0], chunks, dataEnd, dataEnd+DigestLen)) != got {
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
	// The request is free before done runs, which may issue the next one;
	// nothing keeps it or its buffer past here.
	done := req.done
	*req = request{next: h.free}
	h.free = req
	if done != nil {
		done(err)
	}
}
