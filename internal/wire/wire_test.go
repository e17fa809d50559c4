package wire

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func testFlow() FlowID {
	return FlowID{Src: IPv4(10, 0, 0, 1, 40000), Dst: IPv4(10, 0, 0, 2, 443)}
}

func TestMarshalParseRoundTrip(t *testing.T) {
	p := &Packet{
		Flow:    testFlow(),
		Seq:     123456,
		Ack:     654321,
		Flags:   FlagACK | FlagPSH,
		Window:  8192,
		Payload: []byte("hello, offload"),
	}
	got, err := Parse(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Flow != p.Flow || got.Seq != p.Seq || got.Ack != p.Ack ||
		got.Flags != p.Flags || got.Window != p.Window ||
		!bytes.Equal(got.Payload, p.Payload) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, p)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seq, ack uint32, window uint16, flags uint8, payload []byte) bool {
		p := &Packet{
			Flow:    testFlow(),
			Seq:     seq,
			Ack:     ack,
			Flags:   TCPFlags(flags & 0x1f),
			Window:  window,
			Payload: payload,
		}
		got, err := Parse(p.Marshal())
		if err != nil {
			return false
		}
		return got.Seq == p.Seq && got.Ack == p.Ack &&
			got.Flags == p.Flags && got.Window == p.Window &&
			bytes.Equal(got.Payload, p.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestParseDetectsCorruption(t *testing.T) {
	p := &Packet{Flow: testFlow(), Seq: 7, Payload: make([]byte, 100)}
	rand.New(rand.NewSource(3)).Read(p.Payload)
	frame := p.Marshal()
	// Flipping any single payload or TCP header byte must fail the TCP
	// checksum (IP header corruption fails the IP checksum instead).
	for i := EthernetHeaderLen; i < len(frame); i++ {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0xA5
		if _, err := Parse(mut); err == nil {
			// A flip in the checksum fields themselves must also fail.
			t.Errorf("corruption at byte %d not detected", i)
		}
	}
}

func TestParseTruncated(t *testing.T) {
	p := &Packet{Flow: testFlow(), Payload: []byte("xyz")}
	frame := p.Marshal()
	for i := 0; i < FrameOverhead; i++ {
		if _, err := Parse(frame[:i]); err == nil {
			t.Errorf("truncation to %d bytes not detected", i)
		}
	}
}

func TestEndSeq(t *testing.T) {
	cases := []struct {
		flags TCPFlags
		n     int
		want  uint32
	}{
		{0, 10, 110},
		{FlagSYN, 0, 101},
		{FlagFIN, 5, 106},
		{FlagSYN | FlagFIN, 0, 102},
	}
	for _, c := range cases {
		p := &Packet{Seq: 100, Flags: c.flags, Payload: make([]byte, c.n)}
		if got := p.EndSeq(); got != c.want {
			t.Errorf("EndSeq(flags=%v,len=%d) = %d, want %d", c.flags, c.n, got, c.want)
		}
	}
}

func TestFlowReverse(t *testing.T) {
	f := testFlow()
	r := f.Reverse()
	if r.Src != f.Dst || r.Dst != f.Src {
		t.Errorf("Reverse() = %v", r)
	}
	if r.Reverse() != f {
		t.Errorf("Reverse is not an involution")
	}
}

func TestFlagString(t *testing.T) {
	if got := (FlagSYN | FlagACK).String(); got != "SYN|ACK" {
		t.Errorf("String() = %q, want SYN|ACK", got)
	}
	if got := TCPFlags(0).String(); got != "none" {
		t.Errorf("String() = %q, want none", got)
	}
}

func BenchmarkMarshal(b *testing.B) {
	p := &Packet{Flow: testFlow(), Seq: 1, Payload: make([]byte, 1460)}
	b.SetBytes(int64(p.WireLen()))
	for i := 0; i < b.N; i++ {
		_ = p.Marshal()
	}
}

// TestParseIntoNoAlloc: parsing into a reused packet allocates nothing,
// SACK blocks included once the packet's block array has grown.
func TestParseIntoNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting unreliable under -race")
	}
	frames := []Frame{
		(&Packet{Flow: testFlow(), Seq: 1, Flags: FlagACK, Payload: make([]byte, 1448)}).Marshal(),
		(&Packet{Flow: testFlow(), Ack: 9, Flags: FlagACK,
			SACKBlocks: []SACKBlock{{100, 200}, {300, 400}, {500, 600}, {700, 800}}}).Marshal(),
	}
	var pkt Packet
	i := 0
	if got := testing.AllocsPerRun(100, func() {
		if err := ParseInto(frames[i%2], &pkt); err != nil {
			t.Fatal(err)
		}
		i++
	}); got != 0 {
		t.Errorf("ParseInto = %v allocs per frame, want 0", got)
	}
}

// BenchmarkParse parses a full-MSS frame the way the NIC's receive loop
// does: into one reused packet, so 0 allocs/op.
func BenchmarkParse(b *testing.B) {
	p := &Packet{Flow: testFlow(), Seq: 1, Payload: make([]byte, 1460)}
	frame := p.Marshal()
	var pkt Packet
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ParseInto(frame, &pkt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChecksum1448 is the internet checksum over one full-MSS payload,
// what marshal and parse each pay per data packet; BenchmarkChecksum20
// over one header, what the IPv4 header checksum pays.
func BenchmarkChecksum1448(b *testing.B) { benchmarkChecksum(b, 1448) }

func BenchmarkChecksum20(b *testing.B) { benchmarkChecksum(b, 20) }

func benchmarkChecksum(b *testing.B, n int) {
	buf := make([]byte, n)
	rand.New(rand.NewSource(1)).Read(buf)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	var sink uint16
	for i := 0; i < b.N; i++ {
		sink += internetChecksum(buf, uint32(sink))
	}
	checksumSink = sink
}

var checksumSink uint16
