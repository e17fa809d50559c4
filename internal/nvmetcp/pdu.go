// Package nvmetcp implements the NVMe-over-TCP storage protocol of the
// paper's §5.1 on both sides of the NIC boundary:
//
//   - Software: a host (initiator) that exposes remote block reads/writes
//     over a TCP or TLS transport, and a controller (target) that services
//     them from a simulated SSD. Capsules carry a CRC32C header digest and
//     a CRC32C data digest.
//
//   - Hardware: NIC offload ops for the generic engines — transmit-side
//     data-digest fill, and receive-side digest verification plus direct
//     data placement: response payload is DMA-written straight into the
//     block-layer buffer registered per CID (l5o_add_rr_state), so the
//     host's memcpy becomes a no-op (Fig. 9).
//
// The PDU format is a simplification of the NVMe/TCP binding that keeps
// every field the offload relies on: a fixed 24-byte common header
// (type, header length, flags, PDU length, CID, opcode, offset, data
// length) followed by a 4-byte CRC32C header digest, the data, and a
// 4-byte CRC32C data digest when data is present. The magic pattern for
// receive resynchronization (§5.1) is {PDU type, constant header length,
// consistent length fields, valid header digest}.
package nvmetcp

import (
	"encoding/binary"

	"repro/internal/crc32c"
	"repro/internal/offload"
)

// PDU format constants.
const (
	// BaseHeaderLen is the common header size before the header digest.
	BaseHeaderLen = 24
	// HeaderLen includes the always-on CRC32C header digest.
	HeaderLen = BaseHeaderLen + crc32c.Size
	// DigestLen is the trailing CRC32C data digest size.
	DigestLen = crc32c.Size
	// MaxDataLen bounds a single PDU's payload.
	MaxDataLen = 1 << 20

	// TypeCmd is a command capsule (host→controller).
	TypeCmd = 0x04
	// TypeResp is a response capsule (controller→host), optionally
	// carrying read data.
	TypeResp = 0x05

	// OpWrite and OpRead are command opcodes.
	OpWrite = 0x01
	OpRead  = 0x02

	// StatusOK is the success status in response capsules.
	StatusOK = 0x00

	flagHDGST = 0x01
	flagDDGST = 0x02
)

// Header is a decoded PDU header.
type Header struct {
	Type    byte
	CID     uint16
	Op      byte   // opcode for commands, status for responses
	Offset  uint64 // LBA for commands; byte offset into the request buffer for responses
	DataLen int
}

// TotalLen returns the PDU's wire length.
func (h *Header) TotalLen() int {
	n := HeaderLen + h.DataLen
	if h.DataLen > 0 {
		n += DigestLen
	}
	return n
}

// window returns the part of a request buffer a response capsule's data
// belongs in, buf[Offset:Offset+DataLen]. Offset comes off the wire, so the
// range is checked unsigned, once, for the NIC's placement and the host's
// copy alike; ok is false when it does not lie inside buf.
func (h *Header) window(buf []byte) (dest []byte, ok bool) {
	if h.Offset > uint64(len(buf)) || uint64(h.DataLen) > uint64(len(buf))-h.Offset {
		return nil, false
	}
	return buf[h.Offset:][:h.DataLen], true
}

// Build serializes a PDU. If dummyDigest is true the data digest is left
// zero for the NIC transmit offload to fill (§5.1); otherwise it is
// computed in software. The header digest is always computed (it is part
// of the magic pattern and cheap).
func Build(h *Header, data []byte, dummyDigest bool) []byte {
	if len(data) != h.DataLen {
		panic("nvmetcp: data length mismatch")
	}
	buf := make([]byte, h.TotalLen())
	copy(buf[HeaderLen:], data)
	finish(buf, h, dummyDigest)
	return buf
}

// finish completes the PDU in buf, h.TotalLen() bytes with the data already
// at buf[HeaderLen:]: the header, its digest, and the data digest, computed
// or dummy as for Build. buf may be recycled, so every byte outside the data
// is written, the dummy's zeros included.
func finish(buf []byte, h *Header, dummyDigest bool) {
	buf[0] = h.Type
	buf[1] = BaseHeaderLen
	buf[2] = flagHDGST | flagDDGST
	buf[3] = 0
	binary.BigEndian.PutUint32(buf[4:8], uint32(h.TotalLen()))
	binary.BigEndian.PutUint16(buf[8:10], h.CID)
	buf[10] = h.Op
	buf[11] = 0
	binary.BigEndian.PutUint64(buf[12:20], h.Offset)
	binary.BigEndian.PutUint32(buf[20:24], uint32(h.DataLen))
	binary.BigEndian.PutUint32(buf[24:28], crc32c.Checksum(buf[:BaseHeaderLen]))
	if h.DataLen > 0 {
		data, digest := buf[HeaderLen:HeaderLen+h.DataLen], uint32(0)
		if !dummyDigest {
			digest = crc32c.Checksum(data)
		}
		binary.BigEndian.PutUint32(buf[HeaderLen+h.DataLen:], digest)
	}
}

// Decode parses a complete header previously validated by ParseHeader.
func Decode(hdr []byte) Header {
	return Header{
		Type:    hdr[0],
		CID:     binary.BigEndian.Uint16(hdr[8:10]),
		Op:      hdr[10],
		Offset:  binary.BigEndian.Uint64(hdr[12:20]),
		DataLen: int(binary.BigEndian.Uint32(hdr[20:24])),
	}
}

// ParseHeader implements the magic-pattern check of §5.1: PDU type, header
// length constant, flag bits, length-field consistency, and the CRC32C
// header digest. With the 4-byte digest the false-positive probability
// during speculative search is negligible.
func ParseHeader(hdr []byte) (offload.MsgLayout, bool) {
	if len(hdr) < HeaderLen {
		return offload.MsgLayout{}, false
	}
	if hdr[0] != TypeCmd && hdr[0] != TypeResp {
		return offload.MsgLayout{}, false
	}
	if hdr[1] != BaseHeaderLen || hdr[2] != flagHDGST|flagDDGST || hdr[3] != 0 || hdr[11] != 0 {
		return offload.MsgLayout{}, false
	}
	plen := int(binary.BigEndian.Uint32(hdr[4:8]))
	dataLen := int(binary.BigEndian.Uint32(hdr[20:24]))
	if dataLen < 0 || dataLen > MaxDataLen {
		return offload.MsgLayout{}, false
	}
	want := HeaderLen + dataLen
	trailer := 0
	if dataLen > 0 {
		want += DigestLen
		trailer = DigestLen
	}
	if plen != want {
		return offload.MsgLayout{}, false
	}
	if binary.BigEndian.Uint32(hdr[24:28]) != crc32c.Checksum(hdr[:BaseHeaderLen]) {
		return offload.MsgLayout{}, false
	}
	return offload.MsgLayout{Total: plen, Header: HeaderLen, Trailer: trailer}, true
}
