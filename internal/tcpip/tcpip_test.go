package tcpip

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/cycles"
	"repro/internal/meta"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// rawDevice is a plain NIC with no offloads: it marshals outgoing packets
// onto the link and parses incoming frames for the stack.
type rawDevice struct {
	stack *Stack
	send  func(frame wire.Frame)
}

func (d *rawDevice) Transmit(pkt *wire.Packet) { d.send(pkt.Marshal()) }

func (d *rawDevice) DeliverFrame(frame wire.Frame) {
	pkt, err := wire.Parse(frame)
	if err != nil {
		panic(err)
	}
	d.stack.Input(pkt, 0)
}

type pair struct {
	sim    *netsim.Simulator
	link   *netsim.Link
	a, b   *Stack
	model  cycles.Model
	lgA    *cycles.Ledger
	lgB    *cycles.Ledger
	statsA func() netsim.DirStats
}

func newPair(t testing.TB, cfg netsim.LinkConfig) *pair {
	t.Helper()
	p := &pair{sim: netsim.New(), model: cycles.DefaultModel(),
		lgA: &cycles.Ledger{}, lgB: &cycles.Ledger{}}
	p.link = netsim.NewLink(p.sim, cfg)
	p.a = NewStack(p.sim, [4]byte{10, 0, 0, 1}, &p.model, p.lgA)
	p.b = NewStack(p.sim, [4]byte{10, 0, 0, 2}, &p.model, p.lgB)
	devA := &rawDevice{stack: p.a, send: p.link.SendAtoB}
	devB := &rawDevice{stack: p.b, send: p.link.SendBtoA}
	p.a.SetDevice(devA)
	p.b.SetDevice(devB)
	p.link.AttachA(devA)
	p.link.AttachB(devB)
	return p
}

func TestHandshake(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{Latency: 5 * time.Microsecond})
	var server *Socket
	p.b.Listen(80, func(s *Socket) { server = s })
	established := false
	client := p.a.Connect(wire.Addr{IP: p.b.IP(), Port: 80}, func(*Socket) {
		established = true
	})
	p.sim.Run(0)
	if !established || client.State() != "established" {
		t.Fatalf("client state %s, established=%v", client.State(), established)
	}
	if server == nil || server.State() != "established" {
		t.Fatalf("server not established: %v", server)
	}
}

func TestHandshakeSurvivesSynLoss(t *testing.T) {
	// Drop the very first frames: SYN retransmission must recover.
	p := newPair(t, netsim.LinkConfig{
		Latency: 5 * time.Microsecond,
		AtoB:    netsim.FaultConfig{LossProb: 0.7, Seed: 5},
	})
	var server *Socket
	p.b.Listen(80, func(s *Socket) { server = s })
	client := p.a.Connect(wire.Addr{IP: p.b.IP(), Port: 80}, nil)
	p.sim.RunUntil(60 * time.Second)
	if !client.Established() || server == nil || !server.Established() {
		t.Fatalf("handshake did not survive loss: client=%s", client.State())
	}
}

// transfer sends data from a client on stack A to a server on stack B and
// returns the bytes the server read, with per-chunk flags.
func transfer(t *testing.T, p *pair, data []byte, deadline time.Duration) []byte {
	t.Helper()
	var got bytes.Buffer
	done := false
	p.b.Listen(80, func(s *Socket) {
		s.OnReadable = func(s *Socket) {
			for {
				c, ok := s.ReadChunk()
				if !ok {
					break
				}
				got.Write(c.Data)
			}
			if s.EOF() {
				done = true
			}
		}
	})
	p.a.Connect(wire.Addr{IP: p.b.IP(), Port: 80}, func(s *Socket) {
		remaining := data
		var pump func(*Socket)
		pump = func(s *Socket) {
			n := s.Write(remaining)
			remaining = remaining[n:]
			if len(remaining) == 0 {
				s.Close()
			}
		}
		s.OnDrain = pump
		pump(s)
	})
	p.sim.RunUntil(deadline)
	if !done {
		t.Fatalf("transfer incomplete after %v: got %d of %d bytes (retx=%d)",
			deadline, got.Len(), len(data), p.a.Stats.Retransmits)
	}
	return got.Bytes()
}

func randBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestBulkTransferClean(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{Gbps: 10, Latency: 5 * time.Microsecond})
	data := randBytes(1<<20, 1)
	got := transfer(t, p, data, 5*time.Second)
	if !bytes.Equal(got, data) {
		t.Fatalf("stream corrupted: got %d bytes, want %d", len(got), len(data))
	}
	if p.a.Stats.Retransmits != 0 {
		t.Errorf("unexpected retransmits on a clean link: %d", p.a.Stats.Retransmits)
	}
}

func TestBulkTransferWithLoss(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{
		Gbps:    10,
		Latency: 5 * time.Microsecond,
		AtoB:    netsim.FaultConfig{LossProb: 0.02, Seed: 11},
		BtoA:    netsim.FaultConfig{LossProb: 0.02, Seed: 12},
	})
	data := randBytes(1<<20, 2)
	got := transfer(t, p, data, 60*time.Second)
	if !bytes.Equal(got, data) {
		t.Fatalf("stream corrupted under loss: got %d bytes, want %d", len(got), len(data))
	}
	if p.a.Stats.Retransmits == 0 {
		t.Error("expected retransmissions under 2% loss")
	}
}

func TestBulkTransferWithReordering(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{
		Gbps:    10,
		Latency: 5 * time.Microsecond,
		AtoB:    netsim.FaultConfig{ReorderProb: 0.05, Seed: 21},
	})
	data := randBytes(1<<20, 3)
	got := transfer(t, p, data, 60*time.Second)
	if !bytes.Equal(got, data) {
		t.Fatal("stream corrupted under reordering")
	}
	if p.b.Stats.OutOfOrderIn == 0 {
		t.Error("receiver saw no out-of-order packets despite reordering")
	}
}

func TestBulkTransferWithEverything(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{
		Gbps:    10,
		Latency: 5 * time.Microsecond,
		AtoB:    netsim.FaultConfig{LossProb: 0.03, ReorderProb: 0.03, DupProb: 0.02, Seed: 31},
		BtoA:    netsim.FaultConfig{LossProb: 0.01, Seed: 32},
	})
	data := randBytes(512<<10, 4)
	got := transfer(t, p, data, 120*time.Second)
	if !bytes.Equal(got, data) {
		t.Fatal("stream corrupted under combined loss+reorder+dup")
	}
}

func TestStreamIntegrityProperty(t *testing.T) {
	// Randomized fault patterns must never corrupt the delivered stream.
	if testing.Short() {
		t.Skip("long property test")
	}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := netsim.LinkConfig{
			Gbps:    10,
			Latency: 5 * time.Microsecond,
			AtoB: netsim.FaultConfig{
				LossProb:    rng.Float64() * 0.05,
				ReorderProb: rng.Float64() * 0.05,
				DupProb:     rng.Float64() * 0.02,
				Seed:        seed * 100,
			},
			BtoA: netsim.FaultConfig{LossProb: rng.Float64() * 0.02, Seed: seed*100 + 1},
		}
		p := newPair(t, cfg)
		data := randBytes(256<<10, seed)
		got := transfer(t, p, data, 120*time.Second)
		if !bytes.Equal(got, data) {
			t.Fatalf("seed %d: stream corrupted", seed)
		}
	}
}

func TestChunkFlagsNotCoalesced(t *testing.T) {
	// Inject packets directly with alternating flags; the chunks read out
	// must preserve the per-packet boundaries.
	sim := netsim.New()
	model := cycles.DefaultModel()
	st := NewStack(sim, [4]byte{10, 0, 0, 2}, &model, &cycles.Ledger{})
	var out []*wire.Packet
	st.SetDevice(devFunc(func(p *wire.Packet) { out = append(out, keepPacket(p)) }))

	var server *Socket
	st.Listen(80, func(s *Socket) { server = s })
	client := wire.FlowID{Src: wire.IPv4(10, 0, 0, 1, 5555), Dst: wire.IPv4(10, 0, 0, 2, 80)}

	st.Input(&wire.Packet{Flow: client, Seq: 1000, Flags: wire.FlagSYN, Window: 64}, 0)
	if len(out) != 1 || out[0].Flags&wire.FlagSYN == 0 {
		t.Fatal("no SYN-ACK sent")
	}
	iss := out[0].Seq
	st.Input(&wire.Packet{Flow: client, Seq: 1001, Ack: iss + 1, Flags: wire.FlagACK, Window: 64}, 0)
	if server == nil {
		t.Fatal("accept callback never fired")
	}

	st.Input(&wire.Packet{Flow: client, Seq: 1001, Ack: iss + 1, Flags: wire.FlagACK,
		Window: 64, Payload: []byte("aaaa")}, meta.TLSDecrypted|meta.TLSAuthOK)
	st.Input(&wire.Packet{Flow: client, Seq: 1005, Ack: iss + 1, Flags: wire.FlagACK,
		Window: 64, Payload: []byte("bbbb")}, 0)
	st.Input(&wire.Packet{Flow: client, Seq: 1009, Ack: iss + 1, Flags: wire.FlagACK,
		Window: 64, Payload: []byte("cccc")}, meta.TLSDecrypted)

	var chunks []Chunk
	for {
		c, ok := server.ReadChunk()
		if !ok {
			break
		}
		chunks = append(chunks, c)
	}
	if len(chunks) != 3 {
		t.Fatalf("got %d chunks, want 3 (flags must not coalesce)", len(chunks))
	}
	wantFlags := []meta.RxFlags{meta.TLSDecrypted | meta.TLSAuthOK, 0, meta.TLSDecrypted}
	wantData := []string{"aaaa", "bbbb", "cccc"}
	for i, c := range chunks {
		if c.Flags != wantFlags[i] || string(c.Data) != wantData[i] {
			t.Errorf("chunk %d = %q flags %v, want %q flags %v",
				i, c.Data, c.Flags, wantData[i], wantFlags[i])
		}
	}
	if chunks[0].Seq != 1001 || chunks[1].Seq != 1005 || chunks[2].Seq != 1009 {
		t.Errorf("chunk seqs: %d %d %d", chunks[0].Seq, chunks[1].Seq, chunks[2].Seq)
	}
}

type devFunc func(*wire.Packet)

func (f devFunc) Transmit(p *wire.Packet) { f(p) }

// keepPacket returns a copy of a transmitted packet that owns its payload
// and SACK blocks. The stack builds every packet it sends in one reused
// Packet whose payload aliases its send ring, so a test device that keeps
// what Transmit hands it must copy it (NetDevice).
func keepPacket(p *wire.Packet) *wire.Packet {
	cp := *p
	cp.Payload = bytes.Clone(p.Payload)
	cp.SACKBlocks = slices.Clone(p.SACKBlocks)
	return &cp
}

func TestStreamBytesRetainedUntilAcked(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{Gbps: 1, Latency: 100 * time.Microsecond})
	p.b.Listen(80, func(s *Socket) {})
	payload := randBytes(10000, 7)
	var sock *Socket
	sock = p.a.Connect(wire.Addr{IP: p.b.IP(), Port: 80}, func(s *Socket) {
		s.Write(payload)
	})
	// Run just past connection establishment so data is in flight (one-way
	// latency 100µs: SYN-ACK arrives ≈200µs, first data ACK ≈400µs).
	p.sim.RunUntil(250 * time.Microsecond)
	if sock.BufferedOut() == 0 {
		t.Fatal("timing: no data buffered at 250µs")
	}
	from := sock.sndUna
	got, err := sock.sentBytes(from, from+100)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload[:100]) {
		t.Error("the send ring holds the wrong bytes")
	}
	// Out-of-range requests must fail.
	if _, err := sock.sentBytes(from-1, from+10); err == nil {
		t.Error("an already-acknowledged range is still readable")
	}
	p.sim.RunUntil(time.Second)
	if sock.Unacked() != 0 {
		t.Fatalf("transfer did not complete: %d unacked", sock.Unacked())
	}
}

func TestWriteBackpressure(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{Gbps: 0.1, Latency: time.Millisecond})
	p.b.Listen(80, func(s *Socket) {
		s.OnReadable = func(s *Socket) {
			for {
				if _, ok := s.ReadChunk(); !ok {
					break
				}
			}
		}
	})
	drained := false
	p.a.Connect(wire.Addr{IP: p.b.IP(), Port: 80}, func(s *Socket) {
		big := make([]byte, defaultSndBuf+100000)
		n := s.Write(big)
		if n >= len(big) {
			t.Errorf("Write accepted %d bytes, want < %d (buffer cap)", n, len(big))
		}
		s.OnDrain = func(*Socket) { drained = true }
	})
	p.sim.RunUntil(10 * time.Second)
	if !drained {
		t.Error("OnDrain never fired")
	}
}

func TestCloseHandshake(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{Latency: 5 * time.Microsecond})
	var serverClosed, clientClosed bool
	p.b.Listen(80, func(s *Socket) {
		s.OnReadable = func(s *Socket) {
			for {
				if _, ok := s.ReadChunk(); !ok {
					break
				}
			}
			if s.EOF() {
				s.Close()
			}
		}
		s.OnClose = func(*Socket) { serverClosed = true }
	})
	p.a.Connect(wire.Addr{IP: p.b.IP(), Port: 80}, func(s *Socket) {
		s.OnClose = func(*Socket) { clientClosed = true }
		s.Write([]byte("bye"))
		s.Close()
	})
	p.sim.RunUntil(5 * time.Second)
	if !serverClosed || !clientClosed {
		t.Errorf("close incomplete: server=%v client=%v", serverClosed, clientClosed)
	}
}

func TestWriteSeqTracksStream(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{Latency: 5 * time.Microsecond})
	p.b.Listen(80, func(s *Socket) {})
	var seq0, seq1 uint32
	p.a.Connect(wire.Addr{IP: p.b.IP(), Port: 80}, func(s *Socket) {
		seq0 = s.WriteSeq()
		s.Write(make([]byte, 1000))
		seq1 = s.WriteSeq()
	})
	p.sim.Run(0)
	if seq1 != seq0+1000 {
		t.Errorf("WriteSeq advanced by %d, want 1000", seq1-seq0)
	}
}

func TestCyclesCharged(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{Gbps: 10, Latency: 5 * time.Microsecond})
	data := randBytes(100<<10, 9)
	transfer(t, p, data, 10*time.Second)
	if p.lgA.Get(cycles.HostTCP, cycles.StackTx).Cycles == 0 {
		t.Error("sender charged no StackTx cycles")
	}
	if p.lgB.Get(cycles.HostTCP, cycles.StackRx).Cycles == 0 {
		t.Error("receiver charged no StackRx cycles")
	}
}

// TestSocketSizeClass: a Socket holds its two timers and its congestion
// state by value, so a connection's TCP state is one allocation; past the
// 640-byte size class that allocation costs every connection more bytes
// than the three separate objects it replaced. The class must also hold
// the runtime's malloc header (mallocHeader).
func TestSocketSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Socket{}) + mallocHeader; n > 640 {
		t.Errorf("Socket is %d bytes with its malloc header: past the 640-byte size class", n)
	}
}

// mallocHeader is what the Go runtime (1.22 on) adds to every object of
// more than 512 bytes that holds pointers, inside the object's size class:
// a 632-byte Socket takes 640 bytes, a 640-byte one 704.
const mallocHeader = 8
