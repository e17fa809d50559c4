package tcpip

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/cycles"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// loopDevice delivers every packet to the peer stack from inside Transmit:
// it serializes the packet, parses the frame and hands the result to the
// peer's Input, so whatever the peer sends in answer — an ACK, data —
// re-enters the sending stack before its Transmit returns.
type loopDevice struct {
	peer *Stack
	// depth counts the Transmit calls in progress on both devices of a
	// pair; maxDepth records how deep the re-entry went.
	depth, maxDepth *int
}

func (d *loopDevice) Transmit(pkt *wire.Packet) {
	*d.depth++
	*d.maxDepth = max(*d.maxDepth, *d.depth)
	rx, err := wire.Parse(pkt.Marshal())
	if err != nil {
		panic(err)
	}
	d.peer.Input(rx, 0)
	*d.depth--
}

// TestSynchronousLoopback runs a connection over a device pair that
// delivers synchronously, both ends writing 64 KiB at once. Every ACK and
// every answering segment re-enters a stack from inside its own Transmit,
// and rebuilds the packet that stack is still sending: the stream must
// arrive intact both ways, with no retransmission, because the stack
// reads nothing of a packet (nor stale send state) after handing it over.
func TestSynchronousLoopback(t *testing.T) {
	sim := netsim.New()
	model := cycles.DefaultModel()
	a := NewStack(sim, [4]byte{10, 0, 0, 1}, &model, &cycles.Ledger{})
	b := NewStack(sim, [4]byte{10, 0, 0, 2}, &model, &cycles.Ledger{})
	var depth, maxDepth int
	a.SetDevice(&loopDevice{peer: b, depth: &depth, maxDepth: &maxDepth})
	b.SetDevice(&loopDevice{peer: a, depth: &depth, maxDepth: &maxDepth})

	const size = 64 << 10
	toB, toA := randBytes(size, 31), randBytes(size, 32)
	var gotA, gotB bytes.Buffer
	reader := func(got *bytes.Buffer) func(*Socket) {
		return func(s *Socket) {
			for c, ok := s.ReadChunk(); ok; c, ok = s.ReadChunk() {
				got.Write(c.Data)
			}
		}
	}
	// Each end writes its whole stream as soon as the connection is up and
	// tops the send buffer up as it drains. The peer's first segments may
	// arrive before an end's callbacks are set (from inside the handshake
	// ACK it sends), so each reader also drains the queue when it attaches.
	writer := func(data []byte) func(*Socket) {
		off := 0
		return func(s *Socket) {
			for off < len(data) {
				n := s.Write(data[off:])
				if n <= 0 {
					return
				}
				off += n
			}
		}
	}
	b.Listen(80, func(s *Socket) {
		s.OnReadable = reader(&gotB)
		s.OnReadable(s)
		s.OnDrain = writer(toA)
		s.OnDrain(s)
	})
	a.Connect(wire.Addr{IP: b.IP(), Port: 80}, func(s *Socket) {
		s.OnReadable = reader(&gotA)
		s.OnReadable(s)
		s.OnDrain = writer(toB)
		s.OnDrain(s)
	})
	sim.RunUntil(time.Second)

	if !bytes.Equal(gotB.Bytes(), toB) {
		t.Errorf("a→b: received %d bytes, not the %d sent", gotB.Len(), len(toB))
	}
	if !bytes.Equal(gotA.Bytes(), toA) {
		t.Errorf("b→a: received %d bytes, not the %d sent", gotA.Len(), len(toA))
	}
	if maxDepth < 3 {
		t.Errorf("Transmit nested %d deep: the peers' answers never re-entered a sender", maxDepth)
	}
	for _, st := range []*Stack{a, b} {
		if st.Stats.Retransmits != 0 || st.Stats.Timeouts != 0 {
			t.Errorf("stack %v: %d retransmits, %d timeouts over a lossless loopback",
				st.IP(), st.Stats.Retransmits, st.Stats.Timeouts)
		}
	}
}
