package wire

import (
	"encoding/binary"
	"math/rand"
)

// CorruptPayload flips one random bit in the TCP payload of frame and
// repairs the TCP checksum so the frame still parses. It models corruption
// that arises beyond the reach of the L3/L4 checksums — in NIC memory,
// across DMA, or in a middlebox that recomputes checksums — which is
// exactly the class of fault the L5P integrity fields (the TLS
// authentication tag, the NVMe/TCP data digest) exist to catch, and that
// an offloaded receive path must reject rather than deliver.
//
// It reports whether the frame carried payload to corrupt; frames without
// TCP payload (pure ACKs, handshakes) are left untouched. Randomness comes
// only from rng, keeping seeded runs deterministic.
func CorruptPayload(rng *rand.Rand, frame Frame) bool {
	if len(frame) < FrameOverhead {
		return false
	}
	eth := frame[:EthernetHeaderLen]
	if binary.BigEndian.Uint16(eth[12:14]) != EtherTypeIPv4 {
		return false
	}
	ip := frame[EthernetHeaderLen:]
	if ip[0]>>4 != 4 {
		return false
	}
	ihl := int(ip[0]&0x0f) * 4
	totalLen := int(binary.BigEndian.Uint16(ip[2:4]))
	if ihl < IPv4HeaderLen || len(ip) < totalLen || totalLen < ihl+TCPHeaderLen {
		return false
	}
	if ip[9] != ProtoTCP {
		return false
	}
	tcp := ip[ihl:totalLen]
	dataOff := int(tcp[12]>>4) * 4
	if dataOff < TCPHeaderLen || len(tcp) <= dataOff {
		return false // no payload
	}
	payload := tcp[dataOff:]
	payload[rng.Intn(len(payload))] ^= 1 << rng.Intn(8)

	binary.BigEndian.PutUint16(tcp[16:18], 0)
	binary.BigEndian.PutUint16(tcp[16:18], tcpChecksum(ip[12:20], tcp))
	return true
}
