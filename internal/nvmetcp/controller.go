package nvmetcp

import (
	"encoding/binary"
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/crc32c"
	"repro/internal/cycles"
	"repro/internal/l5p"
	"repro/internal/meta"
	"repro/internal/stream"
	"repro/internal/tcpip"
	"repro/internal/telemetry"
)

// Read commands carry the block count in the upper bits of the Offset
// field (the simplified capsule has no SGL descriptors).
const lbaBits = 40

// EncodeReadCmd packs an LBA and block count into the command Offset.
func EncodeReadCmd(lba uint64, count int) uint64 {
	return lba | uint64(count)<<lbaBits
}

// DecodeReadCmd unpacks an LBA and block count from the command Offset.
func DecodeReadCmd(off uint64) (lba uint64, count int) {
	return off & (1<<lbaBits - 1), int(off >> lbaBits)
}

// MaxTransferBlocks bounds the data one command may move: what a single
// write capsule can carry (MaxDataLen), four times the largest read any
// workload in this repo issues. The count field of a read command holds 24
// bits, and the target allocates what it is asked for, so the bound is
// checked before the device is.
const MaxTransferBlocks = MaxDataLen / blockdev.BlockSize

// MaxRespData is the most read data one response capsule carries; a larger
// read is answered with several, each at its offset in the request buffer.
const MaxRespData = 256 << 10

// StatusInvalidField is the response status for a command whose transfer
// size the target refuses.
const StatusInvalidField = 0x02

// CtrlStats counts target-side events.
type CtrlStats struct {
	CmdsRead      uint64
	CmdsWrite     uint64
	BytesServed   uint64
	DigestErrors  uint64
	FramingErrors uint64 // unparseable capsule stream: association dead
}

// Controller is the NVMe-TCP target: it services command capsules from the
// simulated SSD and streams response capsules back, optionally with the
// transmit data-digest offload on its own NIC.
type Controller struct {
	dev    *blockdev.Device
	model  *cycles.Model
	ledger *cycles.Ledger

	asm      l5p.Assembler
	out      sendQueue
	readFree []*readOp // finished reads, for the next commands
	dead     bool

	// OnError receives the fatal association error (malformed framing from
	// corruption, or the stream beneath failing: a TLS record that does not
	// authenticate); the target stops serving the connection.
	OnError func(error)

	// Stats is exported for experiments; treat as read-only.
	Stats CtrlStats
}

// NewController creates a target bound to a device over a transport.
func NewController(tr stream.Stream, dev *blockdev.Device) *Controller {
	c := &Controller{
		dev:    dev,
		model:  tr.Model(),
		ledger: tr.Ledger(),
		asm:    l5p.Assembler{HeaderLen: HeaderLen, Parse: ParseHeader},
	}
	tr.SetOnData(c.onData)
	tr.SetOnError(func(err error) { c.fail(fmt.Errorf("nvmetcp: %w", err)) })
	c.out.init(tr, c.fail)
	return c
}

// RegisterTelemetry exports the controller's counters under prefix
// (nil-safe on both sides).
func (c *Controller) RegisterTelemetry(reg *telemetry.Registry, prefix string) {
	if c == nil || reg == nil {
		return
	}
	reg.RegisterCounters(prefix, &c.Stats)
}

// EnableTxOffload installs the transmit data-digest offload for response
// capsules on the target's NIC. Over a transport other than a plain TCP
// socket it does nothing.
func (c *Controller) EnableTxOffload(dev l5p.Device) { c.out.enableTxOffload(dev) }

func (c *Controller) onData(ch tcpip.Chunk) {
	if c.dead {
		return
	}
	c.asm.Push(ch)
	for !c.dead {
		chunks, _, err := c.asm.Next()
		if err != nil {
			// The command stream is unparseable: stop serving rather than
			// act on misframed commands. The host's requests time out or
			// fail on its own side of the association.
			c.Stats.FramingErrors++
			c.fail(fmt.Errorf("nvmetcp: %w", err))
			return
		}
		if chunks == nil {
			return
		}
		c.handleCmd(chunks)
	}
}

// fail stops serving the association and surfaces the error, once.
func (c *Controller) fail(err error) {
	if c.dead {
		return
	}
	c.dead = true
	if c.OnError != nil {
		c.OnError(err)
	}
}

// reject answers a command whose transfer size the target refuses and
// stops serving: the host side of this package never issues one, so the
// command stream is corrupt or hostile.
func (c *Controller) reject(cid uint16, err error) {
	c.out.send(&Header{Type: TypeResp, CID: cid, Op: StatusInvalidField}, nil)
	c.fail(err) // a no-op if a short write of the response already failed the association
}

func (c *Controller) handleCmd(chunks []tcpip.Chunk) {
	c.ledger.Charge(cycles.HostL5P, cycles.L5PFraming, c.model.L5PPerMessage, 0)
	var hdrBytes [HeaderLen]byte
	hdr := Decode(l5p.AppendRange(hdrBytes[:0], chunks, 0, HeaderLen))
	if hdr.Type != TypeCmd {
		return
	}
	switch hdr.Op {
	case OpRead:
		c.Stats.CmdsRead++
		lba, count := DecodeReadCmd(hdr.Offset)
		if count < 1 || count > MaxTransferBlocks {
			c.reject(hdr.CID, fmt.Errorf("nvmetcp: read of %d blocks (1..%d allowed)", count, MaxTransferBlocks))
			return
		}
		c.read(hdr.CID, lba, count)
	case OpWrite:
		c.Stats.CmdsWrite++
		c.handleWrite(chunks, hdr)
	}
}

func (c *Controller) handleWrite(chunks []tcpip.Chunk, hdr Header) {
	// ParseHeader capped DataLen at MaxDataLen; the device takes whole
	// blocks, and a capsule without data has no digest to verify.
	if hdr.DataLen == 0 || hdr.DataLen%blockdev.BlockSize != 0 {
		c.reject(hdr.CID, fmt.Errorf("nvmetcp: write of %d bytes is not whole %d-byte blocks", hdr.DataLen, blockdev.BlockSize))
		return
	}
	dataEnd := HeaderLen + hdr.DataLen
	data := l5p.AppendRange(nil, chunks, HeaderLen, dataEnd)

	// Verify the data digest unless the NIC already did.
	if all, _ := l5p.Verdict(chunks); !all.Has(meta.NVMeOffloaded | meta.NVMeCRCOK) {
		c.ledger.Charge(cycles.HostL5P, cycles.CRC, c.model.CRCCycles(hdr.DataLen), hdr.DataLen)
		var wireDg [DigestLen]byte
		if binary.BigEndian.Uint32(l5p.AppendRange(wireDg[:0], chunks, dataEnd, dataEnd+DigestLen)) != crc32c.Checksum(data) {
			c.Stats.DigestErrors++
			c.out.send(&Header{Type: TypeResp, CID: hdr.CID, Op: 0x01 /* data error */}, nil)
			return
		}
	}
	lba, _ := DecodeReadCmd(hdr.Offset)
	cid := hdr.CID
	c.dev.Write(lba, data, func() {
		c.out.send(&Header{Type: TypeResp, CID: cid, Op: StatusOK}, nil)
	})
}

// readOp is one read command while the device has it. Ops are recycled and
// carry their completion callback from birth: a read allocates nothing here.
type readOp struct {
	c     *Controller
	cid   uint16
	lba   uint64
	count int
	done  func() // op.complete
}

func (c *Controller) read(cid uint16, lba uint64, count int) {
	var op *readOp
	if n := len(c.readFree); n > 0 {
		op, c.readFree = c.readFree[n-1], c.readFree[:n-1]
	} else {
		op = &readOp{c: c}
		op.done = op.complete
	}
	op.cid, op.lba, op.count = cid, lba, count
	c.dev.Read(lba, count, op.done)
}

// complete streams the read's data back as one or more response capsules,
// each generated by the device straight into its capsule.
func (op *readOp) complete() {
	c, total := op.c, op.count*blockdev.BlockSize
	c.Stats.BytesServed += uint64(total)
	for off := 0; off < total; off += MaxRespData {
		hdr := Header{
			Type:    TypeResp,
			CID:     op.cid,
			Op:      StatusOK,
			Offset:  uint64(off),
			DataLen: min(total-off, MaxRespData),
		}
		pdu := c.out.free.Get(hdr.TotalLen())
		c.dev.Fill(op.lba+uint64(off/blockdev.BlockSize), pdu[HeaderLen:HeaderLen+hdr.DataLen])
		c.out.post(&hdr, pdu)
	}
	c.readFree = append(c.readFree, op)
}
