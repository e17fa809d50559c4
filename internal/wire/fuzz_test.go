package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
)

// FuzzSackOption drives the TCP option plumbing two ways: raw fuzz bytes go
// straight into Parse (which must reject or accept without panicking), and
// the same bytes are decoded into a structured packet whose Marshal→Parse
// round trip must be lossless.
func FuzzSackOption(f *testing.F) {
	f.Add(uint32(100), uint32(200), uint8(0x10), true, []byte{}, []byte("pay"))
	f.Add(uint32(0), uint32(0), uint8(0x02), false,
		[]byte{0, 0, 0, 10, 0, 0, 0, 20}, []byte{})
	f.Add(uint32(1<<31), uint32(7), uint8(0x18), true,
		[]byte{
			0xff, 0xff, 0xff, 0xf0, 0, 0, 0, 16,
			0, 0, 1, 0, 0, 0, 2, 0,
			0, 0, 3, 0, 0, 0, 4, 0,
			0, 0, 5, 0, 0, 0, 6, 0,
			0, 0, 7, 0, 0, 0, 8, 0,
		}, []byte("abc"))

	f.Fuzz(func(t *testing.T, seq, ack uint32, flags uint8, permitted bool,
		blockBytes, payload []byte) {
		// Raw-parse leg: arbitrary bytes must never panic the parser.
		_, _ = Parse(Frame(blockBytes))
		_, _ = Parse(Frame(payload))

		// Structured leg: decode u32 pairs into blocks and round-trip.
		var blocks []SACKBlock
		for i := 0; i+8 <= len(blockBytes) && len(blocks) < 6; i += 8 {
			blocks = append(blocks, SACKBlock{
				Start: binary.BigEndian.Uint32(blockBytes[i:]),
				End:   binary.BigEndian.Uint32(blockBytes[i+4:]),
			})
		}
		if len(payload) > 4096 {
			payload = payload[:4096]
		}
		p := &Packet{
			Flow:          testFlow(),
			Seq:           seq,
			Ack:           ack,
			Flags:         TCPFlags(flags & 0x1f),
			Window:        uint16(seq>>8) ^ uint16(ack),
			Payload:       payload,
			SACKPermitted: permitted,
			SACKBlocks:    blocks,
		}
		frame := p.Marshal()
		if len(frame) != p.WireLen() {
			t.Fatalf("frame len %d != WireLen %d", len(frame), p.WireLen())
		}
		got, err := Parse(frame)
		if err != nil {
			t.Fatalf("round trip parse failed: %v", err)
		}
		if got.Seq != p.Seq || got.Ack != p.Ack || got.Flags != p.Flags {
			t.Fatalf("header mismatch: got %+v want %+v", got, p)
		}
		if got.SACKPermitted != permitted {
			t.Fatalf("SACKPermitted = %v, want %v", got.SACKPermitted, permitted)
		}
		want := blocks
		if len(want) > MaxSACKBlocks {
			want = want[:MaxSACKBlocks]
		}
		if len(got.SACKBlocks) != len(want) {
			t.Fatalf("got %d blocks, want %d", len(got.SACKBlocks), len(want))
		}
		for i := range want {
			if got.SACKBlocks[i] != want[i] {
				t.Fatalf("block %d = %+v, want %+v", i, got.SACKBlocks[i], want[i])
			}
		}
		if !bytes.Equal(got.Payload, payload) {
			t.Fatalf("payload mismatch")
		}
	})
}

// FuzzChecksum holds the chunked internet checksum to the byte-pair
// reference for arbitrary data (so any length and parity) and starting sum.
func FuzzChecksum(f *testing.F) {
	f.Add([]byte{}, uint32(0))
	f.Add([]byte{0xff}, uint32(0xffff))
	f.Add(bytes.Repeat([]byte{0xff, 0xfe, 0x01}, 15), uint32(0xffffffff)) // 45 bytes: one 32-byte turn and every step after it
	f.Fuzz(func(t *testing.T, data []byte, sum uint32) {
		if got, want := internetChecksum(data, sum), checksumRef(data, sum); got != want {
			t.Fatalf("%d bytes from sum %#x: got %#x, want %#x", len(data), sum, got, want)
		}
	})
}

// FuzzParse feeds Parse arbitrary frame bytes. It must never panic, and
// any packet it accepts — a checksum failure included — must be a fixed
// point of Parse∘Marshal: re-serializing it and parsing again gives the
// same packet with no error. The fields Parse reads but Marshal does not
// write back (IP options, reserved TCP bits, unknown TCP options, bytes
// past the IP total length) are outside Packet, so they cannot break it.
func FuzzParse(f *testing.F) {
	for _, p := range []*Packet{
		{Flow: testFlow(), Seq: 1, Ack: 2, Flags: FlagSYN, Window: 65535, SACKPermitted: true},
		{Flow: testFlow(), Seq: 7, Ack: 9, Flags: FlagACK | FlagECE, ECN: ECNCE,
			SACKBlocks: []SACKBlock{{100, 200}, {300, 400}, {500, 600}}},
		{Flow: testFlow().Reverse(), Seq: 1 << 31, Flags: FlagACK | FlagPSH | FlagCWR, ECN: ECNECT0,
			Payload: []byte("odd")},
		{Flow: testFlow(), Flags: FlagFIN | FlagACK, ECN: ECNECT1, SACKPermitted: true,
			SACKBlocks: []SACKBlock{{1, 2}, {3, 4}, {5, 6}, {7, 8}}, Payload: []byte("x")},
	} {
		f.Add([]byte(p.Marshal()))
	}
	bad := (&Packet{Flow: testFlow(), Payload: []byte("corrupt")}).Marshal()
	bad[len(bad)-1] ^= 0xff
	f.Add([]byte(bad))

	f.Fuzz(func(t *testing.T, frame []byte) {
		p, err := Parse(Frame(frame))
		if p == nil {
			return
		}
		if err != nil && !errors.Is(err, ErrBadChecksum) {
			t.Fatalf("Parse returned a packet with error %v", err)
		}
		q, err := Parse(p.Marshal())
		if err != nil {
			t.Fatalf("re-parse of %v: %v", p, err)
		}
		if !bytes.Equal(q.Payload, p.Payload) {
			t.Fatalf("payload %x, want %x", q.Payload, p.Payload)
		}
		q.Payload, p.Payload = nil, nil
		if !reflect.DeepEqual(q, p) {
			t.Fatalf("Parse(Marshal(p)) = %+v, want %+v", q, p)
		}
	})
}
