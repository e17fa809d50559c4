// Package wire defines the packet formats exchanged on the simulated link:
// Ethernet II, IPv4, and TCP, with real header serialization, parsing, and
// checksums.
//
// The NIC device model parses these bytes exactly the way offload hardware
// does — it has no side channel to the sender's data structures — so the
// autonomous offload engine must locate TCP payload, sequence numbers, and
// L5P message boundaries from the frame alone.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Header sizes in bytes.
const (
	EthernetHeaderLen = 14
	IPv4HeaderLen     = 20
	TCPHeaderLen      = 20
	// FrameOverhead is the total header bytes of a payload-bearing frame.
	FrameOverhead = EthernetHeaderLen + IPv4HeaderLen + TCPHeaderLen
)

// EtherTypeIPv4 is the Ethernet type field for IPv4.
const EtherTypeIPv4 = 0x0800

// ProtoTCP is the IPv4 protocol number for TCP.
const ProtoTCP = 6

// TCPFlags is the TCP header flag byte.
type TCPFlags uint8

// TCP flag bits. ECE and CWR sit at their real header positions (bits 6
// and 7); bit 5 (URG) is unused here.
const (
	FlagFIN TCPFlags = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	_ // URG, unused
	FlagECE
	FlagCWR
)

// String renders the set flags, e.g. "SYN|ACK".
func (f TCPFlags) String() string {
	names := []struct {
		bit  TCPFlags
		name string
	}{
		{FlagSYN, "SYN"}, {FlagACK, "ACK"}, {FlagFIN, "FIN"},
		{FlagRST, "RST"}, {FlagPSH, "PSH"},
		{FlagECE, "ECE"}, {FlagCWR, "CWR"},
	}
	out := ""
	for _, n := range names {
		if f&n.bit != 0 {
			if out != "" {
				out += "|"
			}
			out += n.name
		}
	}
	if out == "" {
		return "none"
	}
	return out
}

// Addr is an IPv4 address and TCP port.
type Addr struct {
	IP   [4]byte
	Port uint16
}

// String renders the address in the usual dotted-quad:port form.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d:%d", a.IP[0], a.IP[1], a.IP[2], a.IP[3], a.Port)
}

// IPv4 builds an address from octets and a port.
func IPv4(a, b, c, d byte, port uint16) Addr {
	return Addr{IP: [4]byte{a, b, c, d}, Port: port}
}

// FlowID identifies one direction of a TCP connection (a 4-tuple; the
// protocol is always TCP here). NIC per-flow offload contexts key on it.
type FlowID struct {
	Src, Dst Addr
}

// Reverse returns the flow for the opposite direction.
func (f FlowID) Reverse() FlowID { return FlowID{Src: f.Dst, Dst: f.Src} }

// Hash returns a deterministic RSS-style hash of the 4-tuple (FNV-1a over
// source and destination address and port). Multi-queue NICs use it to
// spread flows over receive/transmit queue pairs. It is a pure function of
// the FlowID — no per-run key material — so a flow lands on the same queue
// in every run, which is what keeps multi-queue simulations deterministic.
func (f FlowID) Hash() uint32 {
	const (
		fnvOffset32 = 2166136261
		fnvPrime32  = 16777619
	)
	h := uint32(fnvOffset32)
	mix := func(b byte) {
		h ^= uint32(b)
		h *= fnvPrime32
	}
	for _, b := range f.Src.IP {
		mix(b)
	}
	mix(byte(f.Src.Port >> 8))
	mix(byte(f.Src.Port))
	for _, b := range f.Dst.IP {
		mix(b)
	}
	mix(byte(f.Dst.Port >> 8))
	mix(byte(f.Dst.Port))
	return h
}

// String renders "src -> dst".
func (f FlowID) String() string { return f.Src.String() + " -> " + f.Dst.String() }

// TCP option kinds used here (RFC 793 §3.1, RFC 2018 §2-3). Unknown kinds
// are skipped by length on parse, the way real stacks do.
const (
	OptEnd           = 0 // end of option list
	OptNOP           = 1 // padding
	OptSACKPermitted = 4 // RFC 2018: "SACK permitted", SYN segments only
	OptSACK          = 5 // RFC 2018: SACK blocks
)

// MaxSACKBlocks is the most SACK blocks one header carries. Without a
// timestamp option the real-world limit is 4 (40 option bytes).
const MaxSACKBlocks = 4

// SACKBlock is one selectively-acknowledged sequence range [Start, End).
// RFC 2018 transmits the left and right edge; End is exclusive.
type SACKBlock struct {
	Start, End uint32
}

// ECN codepoints (RFC 3168), the low two bits of the IPv4 ToS byte.
const (
	ECNNotECT uint8 = 0b00 // sender does not speak ECN
	ECNECT1   uint8 = 0b01
	ECNECT0   uint8 = 0b10 // ECN-capable transport
	ECNCE     uint8 = 0b11 // congestion experienced (set by the network)
)

// Packet is a parsed TCP/IPv4 frame. Seq numbers the first payload byte.
type Packet struct {
	Flow    FlowID
	Seq     uint32
	Ack     uint32
	Flags   TCPFlags
	Window  uint16
	ECN     uint8 // IP-level ECN codepoint (low 2 bits of the ToS byte)
	Payload []byte

	// SACKPermitted advertises RFC 2018 selective acknowledgments; it is
	// only meaningful on SYN and SYN-ACK segments.
	SACKPermitted bool
	// SACKBlocks carries up to MaxSACKBlocks selectively-acknowledged
	// ranges (RFC 2018); the first may be a DSACK duplicate report
	// (RFC 2883). Marshal truncates any excess blocks.
	SACKBlocks []SACKBlock

	// TxCycles is lifecycle metadata, not wire content: the host stack
	// cycles spent building and enqueueing this packet, stamped by
	// tcpip just before handing it to the device so the NIC's lifecycle
	// layer can attribute the tx.enqueue stage. Marshal never encodes
	// it and Parse never sets it.
	TxCycles float64
}

// optLen returns the TCP option bytes this packet marshals to, padded to a
// 4-byte boundary with NOPs.
func (p *Packet) optLen() int {
	n := 0
	if p.SACKPermitted {
		n += 2
	}
	if len(p.SACKBlocks) > 0 {
		blocks := len(p.SACKBlocks)
		if blocks > MaxSACKBlocks {
			blocks = MaxSACKBlocks
		}
		n += 2 + 8*blocks
	}
	return (n + 3) &^ 3
}

// WireLen returns the frame's on-the-wire size in bytes.
func (p *Packet) WireLen() int { return FrameOverhead + p.optLen() + len(p.Payload) }

// EndSeq returns the sequence number just past this packet's payload
// (SYN and FIN each consume one sequence number).
func (p *Packet) EndSeq() uint32 {
	n := uint32(len(p.Payload))
	if p.Flags&FlagSYN != 0 {
		n++
	}
	if p.Flags&FlagFIN != 0 {
		n++
	}
	return p.Seq + n
}

// String renders a compact one-line summary for logs and tests.
func (p *Packet) String() string {
	return fmt.Sprintf("%s [%s] seq=%d ack=%d len=%d",
		p.Flow, p.Flags, p.Seq, p.Ack, len(p.Payload))
}

// Marshal serializes the packet into an Ethernet/IPv4/TCP frame with valid
// IP and TCP checksums.
func (p *Packet) Marshal() Frame {
	buf := make(Frame, p.WireLen())
	copy(buf[FrameOverhead+p.optLen():], p.Payload)
	p.MarshalHeaders(buf)
	return buf
}

// PayloadOffset returns where this packet's payload starts inside its
// marshalled frame. The NIC's pooled transmit path copies the payload there
// and writes the headers (PutHeaders) when a packet is posted, lets offload
// engines transform the payload in place, and then checksums it
// (PutTCPChecksum).
func (p *Packet) PayloadOffset() int { return FrameOverhead + p.optLen() }

// MarshalHeaders serializes the packet's Ethernet/IPv4/TCP headers and
// options into buf (which must be exactly WireLen() bytes) and computes
// both checksums over the payload bytes already present at
// buf[PayloadOffset():]. Unlike Marshal it does not touch the payload
// region, so callers owning a reused (pooled) frame copy the payload in
// first. It is PutHeaders followed by PutTCPChecksum.
func (p *Packet) MarshalHeaders(buf Frame) {
	p.PutHeaders(buf)
	buf.PutTCPChecksum()
}

// PutHeaders is the half of MarshalHeaders that reads the packet: it writes
// the Ethernet/IPv4/TCP headers and options and the IPv4 checksum into buf
// (exactly WireLen() bytes), leaving the TCP checksum for PutTCPChecksum. It
// reads p's header fields and the length of p.Payload, never its bytes, so
// a transmit path can write the headers when a packet is posted and let
// offload engines transform the payload in the frame before the checksum.
// Every header byte — including the reserved/unused IPv4 id, fragment, and
// TCP urgent fields — is written explicitly, so a recycled buffer yields
// the same bytes a fresh one would.
func (p *Packet) PutHeaders(buf Frame) {
	optLen := p.optLen()
	tcpHdrLen := TCPHeaderLen + optLen
	if len(buf) != FrameOverhead+optLen+len(p.Payload) {
		panic("wire: PutHeaders buffer has wrong length")
	}
	eth := buf[:EthernetHeaderLen]
	ip := buf[EthernetHeaderLen : EthernetHeaderLen+IPv4HeaderLen]
	tcp := buf[EthernetHeaderLen+IPv4HeaderLen : FrameOverhead+optLen]

	// Ethernet: synthetic MACs derived from the IPs; type IPv4.
	copy(eth[0:6], macFor(p.Flow.Dst.IP))
	copy(eth[6:12], macFor(p.Flow.Src.IP))
	binary.BigEndian.PutUint16(eth[12:14], EtherTypeIPv4)

	// IPv4.
	ip[0] = 0x45         // version 4, IHL 5
	ip[1] = p.ECN & 0b11 // ToS: DSCP 0, ECN codepoint
	totalLen := IPv4HeaderLen + tcpHdrLen + len(p.Payload)
	binary.BigEndian.PutUint16(ip[2:4], uint16(totalLen))
	binary.BigEndian.PutUint32(ip[4:8], 0) // id, flags, fragment offset
	ip[8] = 64                             // TTL
	ip[9] = ProtoTCP
	binary.BigEndian.PutUint16(ip[10:12], 0) // checksum field zeroed first
	copy(ip[12:16], p.Flow.Src.IP[:])
	copy(ip[16:20], p.Flow.Dst.IP[:])
	binary.BigEndian.PutUint16(ip[10:12], internetChecksum(ip, 0))

	// TCP.
	binary.BigEndian.PutUint16(tcp[0:2], p.Flow.Src.Port)
	binary.BigEndian.PutUint16(tcp[2:4], p.Flow.Dst.Port)
	binary.BigEndian.PutUint32(tcp[4:8], p.Seq)
	binary.BigEndian.PutUint32(tcp[8:12], p.Ack)
	tcp[12] = byte(tcpHdrLen/4) << 4 // data offset in words
	tcp[13] = byte(p.Flags)
	binary.BigEndian.PutUint16(tcp[14:16], p.Window)
	binary.BigEndian.PutUint16(tcp[16:18], 0) // checksum, PutTCPChecksum's
	binary.BigEndian.PutUint16(tcp[18:20], 0) // urgent pointer, unused
	p.putOptions(tcp[TCPHeaderLen:tcpHdrLen])
}

// PutTCPChecksum is the half of MarshalHeaders that reads the frame: it
// computes the TCP checksum of a frame PutHeaders wrote, over the TCP
// header and the payload bytes now in the frame, with the pseudo-header's
// addresses and length taken from the frame too.
func (f Frame) PutTCPChecksum() {
	tcp := f[EthernetHeaderLen+IPv4HeaderLen:]
	binary.BigEndian.PutUint16(tcp[16:18], 0)
	binary.BigEndian.PutUint16(tcp[16:18], tcpChecksum(f[EthernetHeaderLen+12:EthernetHeaderLen+20], tcp))
}

// putOptions encodes the TCP options into opt (exactly optLen() bytes),
// NOP-padding to the 4-byte boundary.
func (p *Packet) putOptions(opt []byte) {
	i := 0
	if p.SACKPermitted {
		opt[i] = OptSACKPermitted
		opt[i+1] = 2
		i += 2
	}
	if len(p.SACKBlocks) > 0 {
		blocks := p.SACKBlocks
		if len(blocks) > MaxSACKBlocks {
			blocks = blocks[:MaxSACKBlocks]
		}
		opt[i] = OptSACK
		opt[i+1] = byte(2 + 8*len(blocks))
		i += 2
		for _, b := range blocks {
			binary.BigEndian.PutUint32(opt[i:], b.Start)
			binary.BigEndian.PutUint32(opt[i+4:], b.End)
			i += 8
		}
	}
	for ; i < len(opt); i++ {
		opt[i] = OptNOP
	}
}

// parseOptions decodes the TCP option bytes into pkt. Malformed options
// (a length that is zero, too small, or overruns the header) are an error.
func parseOptions(opt []byte, pkt *Packet) error {
	for i := 0; i < len(opt); {
		kind := opt[i]
		switch kind {
		case OptEnd:
			return nil
		case OptNOP:
			i++
			continue
		}
		if i+1 >= len(opt) {
			return fmt.Errorf("%w: TCP option %d at end of header", ErrBadOption, kind)
		}
		l := int(opt[i+1])
		if l < 2 || i+l > len(opt) {
			return fmt.Errorf("%w: TCP option %d length %d", ErrBadOption, kind, l)
		}
		switch kind {
		case OptSACKPermitted:
			if l != 2 {
				return fmt.Errorf("%w: SACK-permitted length %d", ErrBadOption, l)
			}
			pkt.SACKPermitted = true
		case OptSACK:
			if l < 10 || (l-2)%8 != 0 {
				return fmt.Errorf("%w: SACK length %d", ErrBadOption, l)
			}
			for j := i + 2; j < i+l; j += 8 {
				pkt.SACKBlocks = append(pkt.SACKBlocks, SACKBlock{
					Start: binary.BigEndian.Uint32(opt[j:]),
					End:   binary.BigEndian.Uint32(opt[j+4:]),
				})
			}
		}
		i += l
	}
	return nil
}

var (
	// ErrTruncated reports a frame shorter than its headers claim.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrNotIPv4 reports a non-IPv4 ethertype or IP version.
	ErrNotIPv4 = errors.New("wire: not IPv4")
	// ErrNotTCP reports a non-TCP IP protocol.
	ErrNotTCP = errors.New("wire: not TCP")
	// ErrBadChecksum reports an IP or TCP checksum mismatch.
	ErrBadChecksum = errors.New("wire: bad checksum")
	// ErrBadOption reports a malformed TCP option list.
	ErrBadOption = errors.New("wire: bad TCP option")
)

// Parse decodes and validates a frame produced by Marshal. The returned
// packet's Payload aliases buf.
//
// Checksum failures are special: the frame still parsed structurally, so
// Parse returns the best-effort packet alongside an ErrBadChecksum error.
// This is how real receive hardware behaves — the checksum verdict is a
// flag on an otherwise-delivered frame, and the NIC hands the packet to
// software for validation. All other errors return a nil packet. Callers
// that treat any non-nil error as a drop keep their existing behaviour.
func Parse(buf Frame) (*Packet, error) {
	pkt := new(Packet)
	err := ParseInto(buf, pkt)
	if pkt.Payload == nil {
		return nil, err
	}
	return pkt, err
}

// ParseInto is Parse into a caller-owned packet, every field overwritten
// (SACKBlocks is refilled from [:0], keeping its array), so a receive loop
// can reuse one packet for every frame. It returns Parse's error. A frame
// Parse returns a packet for leaves pkt.Payload non-nil (empty, not nil,
// when the segment carries no data); one it rejects leaves it nil.
//
//simlint:hotpath
func ParseInto(buf Frame, pkt *Packet) error {
	blocks := pkt.SACKBlocks[:0]
	*pkt = Packet{}
	if len(buf) < FrameOverhead {
		return ErrTruncated
	}
	eth := buf[:EthernetHeaderLen]
	if binary.BigEndian.Uint16(eth[12:14]) != EtherTypeIPv4 {
		return ErrNotIPv4
	}
	ip := buf[EthernetHeaderLen:]
	if ip[0]>>4 != 4 {
		return ErrNotIPv4
	}
	ihl := int(ip[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || len(ip) < ihl {
		return ErrTruncated
	}
	var sumErr error
	if internetChecksum(ip[:ihl], 0) != 0 {
		sumErr = fmt.Errorf("%w: IPv4 header", ErrBadChecksum)
	}
	totalLen := int(binary.BigEndian.Uint16(ip[2:4]))
	if totalLen > len(ip) || totalLen < ihl+TCPHeaderLen {
		return ErrTruncated
	}
	if ip[9] != ProtoTCP {
		return ErrNotTCP
	}
	pkt.ECN = ip[1] & 0b11
	copy(pkt.Flow.Src.IP[:], ip[12:16])
	copy(pkt.Flow.Dst.IP[:], ip[16:20])

	tcp := ip[ihl:totalLen]
	dataOff := int(tcp[12]>>4) * 4
	if dataOff < TCPHeaderLen || len(tcp) < dataOff {
		return ErrTruncated
	}
	pkt.Flow.Src.Port = binary.BigEndian.Uint16(tcp[0:2])
	pkt.Flow.Dst.Port = binary.BigEndian.Uint16(tcp[2:4])
	if sumErr == nil && tcpChecksum(ip[12:20], tcp) != 0 {
		sumErr = fmt.Errorf("%w: TCP segment", ErrBadChecksum)
	}
	pkt.Seq = binary.BigEndian.Uint32(tcp[4:8])
	pkt.Ack = binary.BigEndian.Uint32(tcp[8:12])
	pkt.Flags = TCPFlags(tcp[13])
	pkt.Window = binary.BigEndian.Uint16(tcp[14:16])
	pkt.SACKBlocks = blocks
	if err := parseOptions(tcp[TCPHeaderLen:dataOff], pkt); err != nil {
		if sumErr != nil {
			// The frame is damaged anyway; the checksum verdict is the
			// useful error, and the mangled options are not worth keeping.
			return sumErr
		}
		return err
	}
	pkt.Payload = tcp[dataOff:]
	return sumErr
}

// SetCE rewrites frame's ECN codepoint to CE ("congestion experienced") in
// place, repairing the IPv4 header checksum, the way an ECN-marking router
// does. Frames that are not ECN-capable (ECT(0)/ECT(1)) are left untouched;
// the return value reports whether the mark was applied.
func SetCE(frame Frame) bool {
	if len(frame) < EthernetHeaderLen+IPv4HeaderLen {
		return false
	}
	if binary.BigEndian.Uint16(frame[12:14]) != EtherTypeIPv4 {
		return false
	}
	ip := frame[EthernetHeaderLen:]
	if ip[0]>>4 != 4 {
		return false
	}
	ecn := ip[1] & 0b11
	if ecn == ECNNotECT || ecn == ECNCE {
		return false
	}
	ihl := int(ip[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || len(ip) < ihl {
		return false
	}
	ip[1] |= ECNCE
	binary.BigEndian.PutUint16(ip[10:12], 0)
	binary.BigEndian.PutUint16(ip[10:12], internetChecksum(ip[:ihl], 0))
	return true
}

func macFor(ip [4]byte) []byte {
	return []byte{0x02, 0x00, ip[0], ip[1], ip[2], ip[3]}
}

// sumWords adds data to a running ones-complement accumulator as a stream
// of big-endian 16-bit words; data starts on a word boundary, so in a
// chain of calls every piece but the last has even length. It is the
// simulator's hottest pure function (it runs over every payload byte
// twice, marshal and parse). The ones-complement sum does not depend on
// byte order (RFC 1071 §2(B)): summing the bytes as little-endian words —
// plain loads on the hosts this runs on — and swapping the bytes of the
// folded result gives the big-endian sum. So the main loop adds 128 bytes
// a turn as sixteen 64-bit words with add-with-carry, each carry going back
// in at the next add (the end-around carry); a turn is one chain, so the
// carry is saved and restored once per 128 bytes. A 32-byte loop and then
// 16/8/4/2/1-byte steps continue the same chain over what is left. The
// steps are straight-line, with no loop to carry the carry round: that
// pays for the stack frame the 128-byte turn's sixteen loads need, so a
// 20-byte header sums no slower than with 32-byte turns alone.
func sumWords(data []byte, sum uint64) uint64 {
	var acc, c uint64
	for len(data) >= 128 {
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(data), c)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(data[8:]), c)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(data[16:]), c)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(data[24:]), c)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(data[32:]), c)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(data[40:]), c)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(data[48:]), c)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(data[56:]), c)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(data[64:]), c)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(data[72:]), c)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(data[80:]), c)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(data[88:]), c)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(data[96:]), c)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(data[104:]), c)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(data[112:]), c)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(data[120:]), c)
		data = data[128:]
	}
	for len(data) >= 32 {
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(data), c)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(data[8:]), c)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(data[16:]), c)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(data[24:]), c)
		data = data[32:]
	}
	if len(data) >= 16 {
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(data), c)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(data[8:]), c)
		data = data[16:]
	}
	if len(data) >= 8 {
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(data), c)
		data = data[8:]
	}
	if len(data) >= 4 {
		acc, c = bits.Add64(acc, uint64(binary.LittleEndian.Uint32(data)), c)
		data = data[4:]
	}
	if len(data) >= 2 {
		acc, c = bits.Add64(acc, uint64(binary.LittleEndian.Uint16(data)), c)
		data = data[2:]
	}
	if len(data) == 1 {
		acc, c = bits.Add64(acc, uint64(data[0]), c)
	}
	acc, c = bits.Add64(acc, 0, c)
	acc += c
	// Fold 64 → 16 bits, each fold adding its carry back in.
	acc = acc&0xffffffff + acc>>32
	acc = acc&0xffff + acc>>16
	acc = acc&0xffff + acc>>16
	acc = acc&0xffff + acc>>16
	return sum + uint64(bits.ReverseBytes16(uint16(acc)))
}

// foldSum reduces a 64-bit ones-complement accumulator to the final
// 16-bit inverted checksum.
func foldSum(sum uint64) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + sum>>16
	}
	return ^uint16(sum)
}

// internetChecksum computes the RFC 1071 ones-complement sum of data,
// starting from the given partial sum.
func internetChecksum(data []byte, sum uint32) uint16 {
	return foldSum(sumWords(data, uint64(sum)))
}

// tcpChecksum computes the TCP checksum of seg (header and payload) under
// the pseudo-header of addrs, the IPv4 header's source and destination
// address bytes (ip[12:20]). seg's checksum field must be zero when
// generating, or left as-is when verifying: a valid segment sums to zero.
func tcpChecksum(addrs, seg []byte) uint16 {
	var pseudo [12]byte
	copy(pseudo[0:8], addrs)
	pseudo[9] = ProtoTCP
	binary.BigEndian.PutUint16(pseudo[10:12], uint16(len(seg)))
	return foldSum(sumWords(seg, sumWords(pseudo[:], 0)))
}

// PeekFlow extracts the TCP 4-tuple from a frame without validating
// checksums or options — the way receive hardware computes the RSS hash
// from the headers before any other verdict. It reports ok=false for
// frames too short or not TCP/IPv4-shaped; damaged-but-parseable headers
// yield whatever flow their (possibly corrupt) bytes spell, exactly like
// a real RSS engine hashing a bad frame.
func PeekFlow(buf Frame) (flow FlowID, ok bool) {
	if len(buf) < FrameOverhead {
		return flow, false
	}
	if binary.BigEndian.Uint16(buf[12:14]) != EtherTypeIPv4 {
		return flow, false
	}
	ip := buf[EthernetHeaderLen:]
	if ip[0]>>4 != 4 {
		return flow, false
	}
	ihl := int(ip[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || len(ip) < ihl+TCPHeaderLen {
		return flow, false
	}
	if ip[9] != ProtoTCP {
		return flow, false
	}
	tcp := ip[ihl:]
	copy(flow.Src.IP[:], ip[12:16])
	copy(flow.Dst.IP[:], ip[16:20])
	flow.Src.Port = binary.BigEndian.Uint16(tcp[0:2])
	flow.Dst.Port = binary.BigEndian.Uint16(tcp[2:4])
	return flow, true
}
