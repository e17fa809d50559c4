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

func newBorrowHarness(t testing.TB, onAccept func(*Socket)) *borrowHarness {
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

// send delivers p as the next in-order segment.
func (h *borrowHarness) send(p []byte) {
	h.segment(h.seq, p)
	h.seq += uint32(len(p))
}

// fillHole sends k segments of p behind a hole one segment long, then the
// retransmission that fills it.
func (h *borrowHarness) fillHole(k int, p []byte) {
	n := uint32(len(p))
	for i := 1; i <= k; i++ {
		h.segment(h.seq+uint32(i)*n, p)
	}
	h.segment(h.seq, p)
	h.seq += uint32(k+1) * n
}

// segment delivers p, at most a frame long, at seq through the reused
// frame, then poisons the frame as its next occupant would.
func (h *borrowHarness) segment(seq uint32, p []byte) {
	n := copy(h.frame, p)
	h.st.Input(&wire.Packet{Flow: h.flow, Seq: seq, Ack: h.ack, Flags: wire.FlagACK,
		Window: 64, Payload: h.frame[:n]}, meta.TLSDecrypted)
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

// holeSegments is how many segments arrive behind the hole in
// TestOutOfOrderFillNoAlloc and BenchmarkOutOfOrderFill: the lossy TLS
// lifecycle's depth.
const holeSegments = 12

// newHoleHarness is a borrowHarness whose reader consumes every chunk
// inside OnReadable and counts the bytes into *read.
func newHoleHarness(t testing.TB, read *int) *borrowHarness {
	return newBorrowHarness(t, func(s *Socket) {
		s.OnReadable = func(s *Socket) {
			for c, ok := s.ReadChunk(); ok; c, ok = s.ReadChunk() {
				*read += len(c.Data)
			}
		}
	})
}

// TestOutOfOrderFillNoAlloc: once a socket has filled one hole, the next
// costs no allocation — neither the copies of the segments behind it, which
// go to the socket's arena, nor the list they wait on, nor the duplicate
// ACKs they elicit — and the reader gets every byte.
func TestOutOfOrderFillNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting unreliable under -race")
	}
	read := 0
	h := newHoleHarness(t, &read)
	seg := bytes.Repeat([]byte{0x5A}, 1448)
	h.fillHole(holeSegments, seg) // the kept state and the queue reach their working size
	const runs = 100
	allocs := testing.AllocsPerRun(runs, func() { h.fillHole(holeSegments, seg) })
	if allocs != 0 {
		t.Errorf("%v allocations per hole of %d segments, want 0", allocs, holeSegments)
	}
	// AllocsPerRun calls the function once more to warm up.
	if want := (runs + 2) * (holeSegments + 1) * len(seg); read != want ||
		h.st.Stats.OutOfOrderIn != (runs+2)*holeSegments {
		t.Errorf("read %d bytes, want %d; %d segments out of order, want %d",
			read, want, h.st.Stats.OutOfOrderIn, (runs+2)*holeSegments)
	}
}

// TestArenaBoundedUnderReordering: a socket whose out-of-order list never
// empties — every odd segment arrives two places early, so the next hole
// opens before the last one fills — never finds its arena free to start
// over and replaces it whenever it is full. The replacement is sized by
// what the socket still keeps, a few segments here, so over a stream three
// times the receive buffer the arena stays at its first size instead of
// doubling at each replacement, and the reader gets every byte.
func TestArenaBoundedUnderReordering(t *testing.T) {
	read := 0
	h := newHoleHarness(t, &read)
	seg := bytes.Repeat([]byte{0x5A}, 1448)
	at := func(i int) uint32 { return h.seq + uint32(i*len(seg)) }
	const pairs = 2000
	h.segment(at(1), seg)
	for m := range pairs {
		h.segment(at(2*m+3), seg)
		h.segment(at(2*m), seg)
		if k := h.server.kept; k == nil || len(k.ooo) == 0 {
			t.Fatalf("pair %d: the out-of-order list emptied", m)
		} else if cap(k.arena) > rcvArenaMin {
			t.Fatalf("pair %d: arena of %d bytes for %d kept segments", m, cap(k.arena), len(k.ooo))
		}
	}
	if want := 2 * pairs * len(seg); read != want {
		t.Errorf("read %d bytes, want %d", read, want)
	}
}

// TestNestedInputSparesHeldChunks: the reader's write, answered by a device
// that delivers synchronously, makes Input run again from inside
// OnReadable while the reader holds chunks from the socket's arena. There
// the segment behind a new hole must not start the arena over under them,
// nor the FIN that ends the stream hand the arena back to the stack (whose
// buffers are poisoned when handed back); the socket hands it back once
// the outer Input's reader has returned.
func TestNestedInputSparesHeldChunks(t *testing.T) {
	setPoisonSpares(t)
	const n = 1000
	data := make([]byte, 5*n)
	rand.New(rand.NewSource(1)).Read(data)
	var (
		h      *borrowHarness
		isn    uint32
		nested func()
		read   int
	)
	h = newBorrowHarness(t, func(s *Socket) {
		s.OnReadable = func(s *Socket) {
			var held []Chunk
			for c, ok := s.ReadChunk(); ok; c, ok = s.ReadChunk() {
				held = append(held, c)
			}
			if f := nested; f != nil {
				nested = nil
				f()
			}
			for _, c := range held {
				if off := int(c.Seq - isn); !bytes.Equal(c.Data, data[off:off+len(c.Data)]) {
					t.Errorf("the chunk at stream offset %d changed before OnReadable returned", off)
				}
				read += len(c.Data)
			}
		}
	})
	isn = h.seq
	seg := func(i int) (uint32, []byte) { return isn + uint32(i*n), data[i*n : (i+1)*n] }
	input := func(i int, flags wire.TCPFlags) {
		seq, p := seg(i)
		h.st.Input(&wire.Packet{Flow: h.flow, Seq: seq, Ack: h.ack, Flags: wire.FlagACK | flags,
			Window: 64, Payload: append([]byte(nil), p...)}, 0)
	}
	h.segment(seg(1)) // 1 and 2 wait in the arena behind a hole at 0
	h.segment(seg(2))
	nested = func() {
		input(4, wire.FlagFIN) // the last segment, behind a new hole at 3
		input(3, 0)            // fills it: the stream ends inside this Input
	}
	h.segment(seg(0))
	if nested != nil {
		t.Fatal("the hole filled, but OnReadable did not run")
	}
	if read != len(data) || !h.server.EOF() {
		t.Errorf("read %d of %d bytes, EOF %v", read, len(data), h.server.EOF())
	}
	if h.server.kept != nil {
		t.Error("the socket still holds its arena after the stream ended and every reader returned")
	}
}

// TestReadOutsideOnReadableSparesHeldChunks: a reader may read outside
// OnReadable — a lazy one whose OnReadable only notes that data came, then
// reads from elsewhere — and holds what it read until the socket's next
// OnReadable returns. Until then the socket's arena must neither start over
// under those chunks nor go back to the stack (whose buffers are poisoned
// when handed back): not in the Input that the read's own window update
// draws from a device that delivers synchronously, not in a later Input
// that finds nothing else kept, and not when a bare FIN ends the stream.
func TestReadOutsideOnReadableSparesHeldChunks(t *testing.T) {
	setPoisonSpares(t)
	const n = 1000
	data := make([]byte, 4*n)
	rand.New(rand.NewSource(2)).Read(data)
	var (
		h      *borrowHarness
		isn    uint32
		held   []Chunk // read outside OnReadable and not yet let go
		calls  int
		answer func() // what the device delivers at the stack's next transmit
	)
	check := func(when string) {
		for _, c := range held {
			if off := int(c.Seq - isn); !bytes.Equal(c.Data, data[off:off+len(c.Data)]) {
				t.Fatalf("%s: the chunk at stream offset %d changed while its reader held it", when, off)
			}
		}
	}
	h = newBorrowHarness(t, func(s *Socket) {
		s.rcvBufCap = 3 * n / 2 // one unread segment shuts the window
		s.OnReadable = func(*Socket) { calls++; check("in OnReadable") }
	})
	isn = h.seq
	h.st.SetDevice(devFunc(func(*wire.Packet) {
		if f := answer; f != nil {
			answer = nil
			f()
		}
	}))
	// input delivers segment i of data, or at i == 4 the bare FIN after
	// it, from a buffer poisoned once Input returns.
	input := func(i int) {
		p := append([]byte(nil), data[min(i*n, len(data)):min((i+1)*n, len(data))]...)
		flags := wire.FlagACK
		if len(p) == 0 {
			flags |= wire.FlagFIN
		}
		h.st.Input(&wire.Packet{Flow: h.flow, Seq: isn + uint32(i*n), Ack: h.ack, Flags: flags,
			Window: 64, Payload: p}, 0)
		for j := range p {
			p[j] = 0xDB
		}
	}
	read := func() {
		for c, ok := h.server.ReadChunk(); ok; c, ok = h.server.ReadChunk() {
			held = append(held, c)
		}
	}

	input(0)        // left unread, so it moves to the arena
	h.st.sim.Run(0) // the delayed ACK shuts the window
	answer = func() { input(1) }
	read() // its window update draws segment 1, in order, inside ReadChunk
	if answer != nil || calls != 2 {
		t.Fatalf("the window update drew no segment (%v), or OnReadable ran %d times, want 2", answer == nil, calls)
	}
	check("after the read whose window update drew segment 1")
	read()
	input(3) // behind a hole, and nothing else is kept
	check("after an out-of-order segment")
	input(2) // fills the hole; OnReadable returns, so the reader lets go
	held = held[:0]
	read()
	input(4) // checks the chunks in OnReadable, before it returns
	if calls != 4 || !h.server.EOF() || h.server.kept != nil {
		t.Errorf("OnReadable ran %d times, want 4; EOF %v; arena kept after the reader returned: %v",
			calls, h.server.EOF(), h.server.kept != nil)
	}
}

// BenchmarkOutOfOrderFill times one hole of holeSegments segments filled by
// one retransmission, read inside OnReadable.
func BenchmarkOutOfOrderFill(b *testing.B) {
	read := 0
	h := newHoleHarness(b, &read)
	seg := bytes.Repeat([]byte{0x5A}, 1448)
	h.fillHole(holeSegments, seg)
	b.ReportAllocs()
	for b.Loop() {
		h.fillHole(holeSegments, seg)
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
