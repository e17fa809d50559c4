package tcpip

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/cycles"
	"repro/internal/meta"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// borrowHarness is a listening stack driven by hand-built packets: every
// data segment's payload is one buffer the test reuses, the way the NIC
// reuses a received frame once Input returns.
type borrowHarness struct {
	st     *Stack
	server *Socket
	flow   wire.FlowID
	seq    uint32 // next client sequence number
	ack    uint32
	acks   int // segments the stack transmitted
	frame  []byte
}

func newBorrowHarness(t *testing.T, onAccept func(*Socket)) *borrowHarness {
	t.Helper()
	model := cycles.DefaultModel()
	h := &borrowHarness{
		flow:  wire.FlowID{Src: wire.IPv4(10, 0, 0, 1, 7000), Dst: wire.IPv4(10, 0, 0, 2, 80)},
		seq:   5000,
		frame: make([]byte, 1448),
	}
	h.st = NewStack(netsim.New(), [4]byte{10, 0, 0, 2}, &model, &cycles.Ledger{})
	var synAck uint32
	h.st.SetDevice(devFunc(func(p *wire.Packet) { h.acks++; synAck = p.Seq }))
	h.st.Listen(80, func(s *Socket) { h.server = s; onAccept(s) })
	h.st.Input(&wire.Packet{Flow: h.flow, Seq: h.seq, Flags: wire.FlagSYN, Window: 64}, 0)
	h.seq++
	h.ack = synAck + 1
	h.st.Input(&wire.Packet{Flow: h.flow, Seq: h.seq, Ack: h.ack, Flags: wire.FlagACK, Window: 64}, 0)
	if h.server == nil {
		t.Fatal("no accept")
	}
	return h
}

// send delivers p as the next in-order segment through the reused frame,
// then poisons the frame as its next occupant would.
func (h *borrowHarness) send(p []byte) {
	n := copy(h.frame, p)
	h.st.Input(&wire.Packet{Flow: h.flow, Seq: h.seq, Ack: h.ack, Flags: wire.FlagACK,
		Window: 64, Payload: h.frame[:n]}, meta.TLSDecrypted)
	h.seq += uint32(n)
	for i := range h.frame {
		h.frame[i] = 0xDB
	}
}

// TestReceiveBorrowNoAlloc: a reader that consumes its chunks inside
// OnReadable gets the received payload itself, not a copy, and receiving
// a segment costs no allocation, nor does the ACK it elicits: the stack
// builds every packet it transmits in one reused packet.
func TestReceiveBorrowNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting unreliable under -race")
	}
	var h *borrowHarness
	aliased, chunks := 0, 0
	h = newBorrowHarness(t, func(s *Socket) {
		s.OnReadable = func(s *Socket) {
			for c, ok := s.ReadChunk(); ok; c, ok = s.ReadChunk() {
				chunks++
				if &c.Data[0] == &h.frame[0] {
					aliased++
				}
			}
		}
	})
	seg := bytes.Repeat([]byte{0x5A}, 1448)
	for i := 0; i < 64; i++ { // the chunk queue reaches its working size
		h.send(seg)
	}
	acks := h.acks
	allocs := testing.AllocsPerRun(500, func() {
		h.send(seg) // delayed ACK: every second segment is acked at once
		h.send(seg)
	})
	if allocs != 0 {
		t.Errorf("%v allocations per two segments and their ACK, want 0", allocs)
	}
	if h.acks == acks {
		t.Error("no ACK sent: the transmit path went unmeasured")
	}
	if aliased != chunks || chunks == 0 {
		t.Errorf("%d of %d chunks alias the received frame, want all", aliased, chunks)
	}
}

// TestUnreadChunkSurvivesFrameReuse: bytes a reader leaves queued — no
// OnReadable at all, or one that peeks and stops reading — are the
// socket's own copy, intact after the frame is overwritten, and a reader
// that comes back later gets the stream unchanged.
func TestUnreadChunkSurvivesFrameReuse(t *testing.T) {
	for _, tc := range []struct {
		name   string
		accept func(s *Socket, read *bytes.Buffer)
	}{
		{"no-reader", func(*Socket, *bytes.Buffer) {}},
		{"peeks-then-stops", func(s *Socket, read *bytes.Buffer) {
			reads := 0
			s.OnReadable = func(s *Socket) {
				s.PeekChunks(func(Chunk) bool { return true })
				if reads < 3 { // reads the first segments, then leaves the rest
					c, _ := s.ReadChunk()
					read.Write(c.Data)
					reads++
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var read bytes.Buffer
			h := newBorrowHarness(t, func(s *Socket) { tc.accept(s, &read) })
			rng := rand.New(rand.NewSource(1))
			data := make([]byte, 20*1000)
			rng.Read(data)
			for off := 0; off < len(data); off += 1000 {
				h.send(data[off : off+1000])
			}
			for c, ok := h.server.ReadChunk(); ok; c, ok = h.server.ReadChunk() {
				read.Write(c.Data)
			}
			if !bytes.Equal(read.Bytes(), data) {
				t.Fatalf("read %d bytes, not the %d sent: a queued chunk lost its bytes to the frame's next occupant",
					read.Len(), len(data))
			}
		})
	}
}
