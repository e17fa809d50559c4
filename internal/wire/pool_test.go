package wire

import (
	"bytes"
	"math/rand"
	"testing"
)

func randomPacket(rng *rand.Rand) *Packet {
	p := &Packet{
		Flow: FlowID{
			Src: IPv4(10, 0, 0, byte(1+rng.Intn(9)), uint16(1000+rng.Intn(60000))),
			Dst: IPv4(10, 0, 0, byte(1+rng.Intn(9)), uint16(1000+rng.Intn(60000))),
		},
		Seq:    rng.Uint32(),
		Ack:    rng.Uint32(),
		Flags:  FlagACK | FlagPSH,
		Window: uint16(rng.Intn(1 << 16)),
		ECN:    uint8(rng.Intn(4)),
	}
	if rng.Intn(2) == 0 {
		p.Payload = make([]byte, 1+rng.Intn(3000))
		rng.Read(p.Payload)
	}
	if rng.Intn(3) == 0 {
		for i, n := 0, 1+rng.Intn(MaxSACKBlocks); i < n; i++ {
			s := rng.Uint32()
			p.SACKBlocks = append(p.SACKBlocks, SACKBlock{Start: s, End: s + uint32(1+rng.Intn(5000))})
		}
	}
	return p
}

// TestMarshalHeadersMatchesMarshal pins the pooled-path contract: copying
// the payload into a dirty recycled buffer and calling MarshalHeaders must
// produce bytes identical to a fresh Marshal — every header byte written,
// nothing stale leaking through.
func TestMarshalHeadersMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		p := randomPacket(rng)
		fresh := p.Marshal()

		dirty := make(Frame, p.WireLen())
		for j := range dirty {
			dirty[j] = 0xAB
		}
		copy(dirty[p.PayloadOffset():], p.Payload)
		p.MarshalHeaders(dirty)
		if !bytes.Equal(fresh, dirty) {
			t.Fatalf("packet %d: MarshalHeaders over dirty buffer differs from Marshal", i)
		}
		if pkt, err := Parse(dirty); err != nil || pkt == nil {
			t.Fatalf("packet %d: reparse failed: %v", i, err)
		}
	}
}

func TestPeekFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		p := randomPacket(rng)
		f := p.Marshal()
		flow, ok := PeekFlow(f)
		if !ok || flow != p.Flow {
			t.Fatalf("PeekFlow = %v, %v; want %v, true", flow, ok, p.Flow)
		}
	}
	if _, ok := PeekFlow(make(Frame, 10)); ok {
		t.Error("PeekFlow accepted a truncated frame")
	}
	junk := make(Frame, FrameOverhead)
	if _, ok := PeekFlow(junk); ok {
		t.Error("PeekFlow accepted a non-IPv4 frame")
	}
}

// checksumRef is RFC 1071 as written: one big-endian byte pair at a time,
// an odd last byte padded with zero, carries folded back in.
func checksumRef(data []byte, sum uint32) uint16 {
	acc := uint64(sum)
	for len(data) >= 2 {
		acc += uint64(data[0])<<8 | uint64(data[1])
		data = data[2:]
	}
	if len(data) == 1 {
		acc += uint64(data[0]) << 8
	}
	for acc>>16 != 0 {
		acc = (acc & 0xffff) + acc>>16
	}
	return ^uint16(acc)
}

// TestChecksumChunkedEquivalence checks the chunked summation against the
// byte-pair reference over every length through two turns of the 32-byte
// loop and its 8/4/2/1-byte steps.
func TestChecksumChunkedEquivalence(t *testing.T) {
	ref := checksumRef
	rng := rand.New(rand.NewSource(3))
	buf := make([]byte, 4096)
	rng.Read(buf)
	for n := 0; n <= 80; n++ {
		if got, want := internetChecksum(buf[:n], 77), ref(buf[:n], 77); got != want {
			t.Fatalf("len %d: got %#x want %#x", n, got, want)
		}
	}
	for i := 0; i < 100; i++ {
		n := rng.Intn(len(buf))
		if got, want := internetChecksum(buf[:n], 0), ref(buf[:n], 0); got != want {
			t.Fatalf("len %d: got %#x want %#x", n, got, want)
		}
	}
}

func TestFramePool(t *testing.T) {
	p := NewFramePool()
	f := p.Get(100)
	if len(f) != 100 {
		t.Fatalf("Get(100) len = %d", len(f))
	}
	base := &f[:cap(f)][cap(f)-1]
	p.Put(f)
	g := p.Get(200) // same 256-byte class: must recycle
	if &g[:cap(g)][cap(g)-1] != base {
		t.Error("Get after Put did not recycle the frame")
	}
	st := p.Stats()
	if st.Gets != 2 || st.Puts != 1 || st.News != 1 {
		t.Errorf("stats = %+v; want gets=2 puts=1 news=1", st)
	}
	if p.InUse() != 1 {
		t.Errorf("InUse = %d; want 1", p.InUse())
	}
	p.Put(g)
	if p.InUse() != 0 {
		t.Errorf("InUse after final put = %d; want 0", p.InUse())
	}

	// Oversize frames fall through to plain allocation but stay accounted.
	big := p.Get(poolMaxCap + 1)
	p.Put(big)
	if p.InUse() != 0 {
		t.Errorf("oversize InUse = %d; want 0", p.InUse())
	}

	// Clone is pool-backed and independent.
	src := Frame{1, 2, 3}
	c := p.Clone(src)
	c[0] = 9
	if src[0] != 1 {
		t.Error("Clone aliases its source")
	}
}
