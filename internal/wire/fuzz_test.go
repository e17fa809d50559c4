package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"slices"
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
// reference for arbitrary data (so any length and parity) and starting sum,
// and again the way tcpChecksum calls it: a 12-byte pseudo-header, then the
// data as a chain of pieces, every one but the last of even length (cut
// where the bytes of cuts say).
func FuzzChecksum(f *testing.F) {
	f.Add([]byte{}, uint32(0), []byte{})
	f.Add([]byte{0xff}, uint32(0xffff), []byte{0})
	f.Add(bytes.Repeat([]byte{0xff, 0xfe, 0x01}, 15), uint32(0xffffffff), []byte{20, 7}) // 45 bytes: one 32-byte turn, then 8/4/1
	// 319 bytes: two 128-byte turns, a 32-byte turn and every step after
	// it (16/8/4/2/1); the first piece (140 bytes) runs a 128-byte turn of
	// its own.
	f.Add(append(bytes.Repeat([]byte{0xff, 0xfe, 0x01}, 106), 0x80), uint32(0xfffe), []byte{70, 3})
	f.Fuzz(func(t *testing.T, data []byte, sum uint32, cuts []byte) {
		if got, want := internetChecksum(data, sum), checksumRef(data, sum); got != want {
			t.Fatalf("%d bytes from sum %#x: got %#x, want %#x", len(data), sum, got, want)
		}
		var pseudo [12]byte
		binary.BigEndian.PutUint32(pseudo[:], sum)
		binary.BigEndian.PutUint32(pseudo[8:], sum^uint32(len(data)))
		acc := sumWords(pseudo[:], 0)
		rest := data
		for _, c := range cuts {
			n := min(2*int(c), len(rest)&^1)
			acc, rest = sumWords(rest[:n], acc), rest[n:]
		}
		acc = sumWords(rest, acc)
		if got, want := foldSum(acc), checksumRef(append(pseudo[:], data...), 0); got != want {
			t.Fatalf("%d bytes in %d pieces behind a pseudo-header: got %#x, want %#x",
				len(data), len(cuts)+1, got, want)
		}
	})
}

// FuzzParse feeds Parse arbitrary frame bytes. It must never panic, and
// any packet it accepts — a checksum failure included — must be a fixed
// point of Parse∘Marshal: re-serializing it and parsing again gives the
// same packet with no error. The fields Parse reads but Marshal does not
// write back (IP options, reserved TCP bits, unknown TCP options, bytes
// past the IP total length) are outside Packet, so they cannot break it.
// ParseInto a dirty packet — four SACK blocks, a payload, every header
// field set — must reach Parse's verdict and packet, with no stale block.
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
		dirty := &Packet{Flow: testFlow(), Seq: 5, Ack: 6, Flags: FlagSYN, Window: 7, ECN: ECNCE,
			SACKPermitted: true, Payload: []byte("stale"),
			SACKBlocks: []SACKBlock{{1, 2}, {3, 4}, {5, 6}, {7, 8}}}
		if err2 := ParseInto(Frame(frame), dirty); fmt.Sprint(err2) != fmt.Sprint(err) {
			t.Fatalf("ParseInto error %v, Parse error %v", err2, err)
		}
		if (p == nil) != (dirty.Payload == nil) {
			t.Fatalf("Parse returned %v, ParseInto left payload %x", p, dirty.Payload)
		}
		if p == nil {
			return
		}
		if !slices.Equal(dirty.SACKBlocks, p.SACKBlocks) {
			t.Fatalf("ParseInto SACK blocks %v, Parse %v", dirty.SACKBlocks, p.SACKBlocks)
		}
		into := *dirty
		into.SACKBlocks = p.SACKBlocks
		if !reflect.DeepEqual(&into, p) {
			t.Fatalf("ParseInto = %+v, Parse = %+v", &into, p)
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
