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
	// drop, if set, loses the data frames whose ordinals it holds,
	// counting the data frames both devices of a pair send, from 1, in
	// *dataFrames.
	drop       map[int]bool
	dataFrames *int
}

func (d *loopDevice) Transmit(pkt *wire.Packet) {
	if d.drop != nil && len(pkt.Payload) > 0 {
		*d.dataFrames++
		if d.drop[*d.dataFrames] {
			return
		}
	}
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
	loopTransfer(t, sim, a, b, 64<<10)
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

// TestSynchronousLoopbackLoss is TestSynchronousLoopback with SACK on and
// a fixed set of data frames lost, chosen so that a retransmission timeout,
// a fast retransmit and scoreboard-directed hole retransmissions all send
// from inside some Transmit: their answers re-enter the sender before the
// retransmission's Transmit returns, so each path must have committed its
// recovery state first. 256 KiB must arrive intact both ways.
func TestSynchronousLoopbackLoss(t *testing.T) {
	sim := netsim.New()
	model := cycles.DefaultModel()
	a := NewStack(sim, [4]byte{10, 0, 0, 1}, &model, &cycles.Ledger{})
	b := NewStack(sim, [4]byte{10, 0, 0, 2}, &model, &cycles.Ledger{})
	a.EnableSACK()
	b.EnableSACK()
	var depth, maxDepth, frames int
	drop := map[int]bool{}
	for _, n := range loopLosses {
		drop[n] = true
	}
	a.SetDevice(&loopDevice{peer: b, depth: &depth, maxDepth: &maxDepth, drop: drop, dataFrames: &frames})
	b.SetDevice(&loopDevice{peer: a, depth: &depth, maxDepth: &maxDepth, drop: drop, dataFrames: &frames})
	loopTransfer(t, sim, a, b, 256<<10)
	var total StackStats
	for _, st := range []*Stack{a, b} {
		total.Timeouts += st.Stats.Timeouts
		total.FastRetransmits += st.Stats.FastRetransmits
		total.HolesRetransmitted += st.Stats.HolesRetransmitted
	}
	t.Logf("%d data frames; timeouts %d, fast retransmits %d, hole retransmissions %d",
		frames, total.Timeouts, total.FastRetransmits, total.HolesRetransmitted)
	if total.Timeouts == 0 || total.FastRetransmits == 0 || total.HolesRetransmitted == 0 {
		t.Errorf("timeouts %d, fast retransmits %d, hole retransmissions %d: want every recovery path run",
			total.Timeouts, total.FastRetransmits, total.HolesRetransmitted)
	}
}

var loopLosses = []int{5, 40, 41, 42, 300}

// loopTransfer has a and b, wired to devices that deliver synchronously,
// each send the other size random bytes at once, and checks both streams
// arrive intact.
func loopTransfer(t *testing.T, sim *netsim.Simulator, a, b *Stack, size int) {
	t.Helper()
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
	sim.RunUntil(10 * time.Second)

	if !bytes.Equal(gotB.Bytes(), toB) {
		t.Errorf("a→b: received %d bytes, not the %d sent", gotB.Len(), len(toB))
	}
	if !bytes.Equal(gotA.Bytes(), toA) {
		t.Errorf("b→a: received %d bytes, not the %d sent", gotA.Len(), len(toA))
	}
}
