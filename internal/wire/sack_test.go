package wire

import (
	"bytes"
	"testing"
)

func TestSACKOptionRoundTrip(t *testing.T) {
	cases := []struct {
		name      string
		permitted bool
		blocks    []SACKBlock
		payload   []byte
	}{
		{name: "permitted only", permitted: true},
		{name: "one block", blocks: []SACKBlock{{1000, 2000}}},
		{name: "four blocks", blocks: []SACKBlock{
			{10, 20}, {30, 40}, {50, 60}, {70, 80}}},
		{name: "blocks with payload", blocks: []SACKBlock{{5, 9}},
			payload: []byte("data rides along")},
		{name: "wraparound block", blocks: []SACKBlock{{0xfffffff0, 16}}},
		{name: "permitted and blocks", permitted: true,
			blocks: []SACKBlock{{1, 2}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := &Packet{
				Flow:          testFlow(),
				Seq:           100,
				Ack:           200,
				Flags:         FlagACK,
				Window:        512,
				Payload:       c.payload,
				SACKPermitted: c.permitted,
				SACKBlocks:    c.blocks,
			}
			frame := p.Marshal()
			if len(frame) != p.WireLen() {
				t.Fatalf("frame len %d, WireLen %d", len(frame), p.WireLen())
			}
			got, err := Parse(frame)
			if err != nil {
				t.Fatal(err)
			}
			if got.SACKPermitted != c.permitted {
				t.Errorf("SACKPermitted = %v, want %v", got.SACKPermitted, c.permitted)
			}
			if len(got.SACKBlocks) != len(c.blocks) {
				t.Fatalf("got %d blocks, want %d", len(got.SACKBlocks), len(c.blocks))
			}
			for i, b := range c.blocks {
				if got.SACKBlocks[i] != b {
					t.Errorf("block %d = %+v, want %+v", i, got.SACKBlocks[i], b)
				}
			}
			if !bytes.Equal(got.Payload, c.payload) {
				t.Errorf("payload mismatch: got %q want %q", got.Payload, c.payload)
			}
			if got.Seq != p.Seq || got.Ack != p.Ack || got.Flags != p.Flags {
				t.Errorf("header fields mismatch: %+v", got)
			}
		})
	}
}

func TestSACKOptionTruncatesExcessBlocks(t *testing.T) {
	p := &Packet{Flow: testFlow(), Flags: FlagACK}
	for i := uint32(0); i < 6; i++ {
		p.SACKBlocks = append(p.SACKBlocks, SACKBlock{i * 100, i*100 + 50})
	}
	got, err := Parse(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.SACKBlocks) != MaxSACKBlocks {
		t.Fatalf("got %d blocks, want %d", len(got.SACKBlocks), MaxSACKBlocks)
	}
	for i := 0; i < MaxSACKBlocks; i++ {
		if got.SACKBlocks[i] != p.SACKBlocks[i] {
			t.Errorf("block %d = %+v, want %+v", i, got.SACKBlocks[i], p.SACKBlocks[i])
		}
	}
}

func TestPlainPacketsStayOptionFree(t *testing.T) {
	p := &Packet{Flow: testFlow(), Flags: FlagACK, Payload: []byte("x")}
	frame := p.Marshal()
	if len(frame) != FrameOverhead+1 {
		t.Fatalf("option-free frame grew to %d bytes, want %d",
			len(frame), FrameOverhead+1)
	}
	tcp := frame[EthernetHeaderLen+IPv4HeaderLen:]
	if tcp[12]>>4 != 5 {
		t.Errorf("data offset = %d words, want 5", tcp[12]>>4)
	}
}

func TestParseRejectsMalformedOptions(t *testing.T) {
	base := &Packet{Flow: testFlow(), Flags: FlagACK,
		SACKBlocks: []SACKBlock{{10, 20}}}
	frame := base.Marshal()
	optStart := EthernetHeaderLen + IPv4HeaderLen + TCPHeaderLen

	// A SACK option whose length is not 2+8n must be rejected even with a
	// fixed-up checksum.
	for _, badLen := range []byte{0, 1, 3, 9, 11} {
		mut := append(Frame(nil), frame...)
		mut[optStart+1] = badLen
		fixupTCPChecksum(mut)
		if _, err := Parse(mut); err == nil {
			t.Errorf("SACK option length %d accepted", badLen)
		}
	}
	// An option length overrunning the header must be rejected.
	mut := append(Frame(nil), frame...)
	mut[optStart+1] = 2 + 8*4 // claims 4 blocks, header holds 1
	fixupTCPChecksum(mut)
	if _, err := Parse(mut); err == nil {
		t.Error("overrunning SACK option accepted")
	}
}

// fixupTCPChecksum rewrites the TCP checksum so option-mutation tests
// exercise the option parser rather than the checksum.
func fixupTCPChecksum(frame Frame) {
	ip := frame[EthernetHeaderLen:]
	ihl := int(ip[0]&0x0f) * 4
	totalLen := int(uint16(ip[2])<<8 | uint16(ip[3]))
	tcp := ip[ihl:totalLen]
	tcp[16], tcp[17] = 0, 0
	sum := tcpChecksum(ip[12:20], tcp)
	tcp[16], tcp[17] = byte(sum>>8), byte(sum)
}
