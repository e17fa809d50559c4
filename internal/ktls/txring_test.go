package ktls

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/tcpip"
	"repro/internal/wire"
)

// newFilterWorld is newWorld with every frame the client's NIC sends
// passed through drop first: true loses it.
func newFilterWorld(cfg netsim.LinkConfig, drop func(wire.Frame) bool) *world {
	w := newWorld(cfg)
	w.cliNIC = nic.New(w.cliStack, func(f wire.Frame) {
		if !drop(f) {
			w.link.SendAtoB(f)
		}
	}, nic.Config{})
	w.link.AttachA(w.cliNIC)
	return w
}

// readRecorder stands between a Conn's retainer and its socket and keeps
// every range the retainer reads back, noting whether TCP had already
// acknowledged its start.
type readRecorder struct {
	*tcpip.Socket
	reads []sentRead
	fails int
}

type sentRead struct {
	from      uint32
	data      []byte
	fromAcked bool
}

func (r *readRecorder) ReadSent(from, to uint32) (head, tail []byte, ok bool) {
	head, tail, ok = r.Socket.ReadSent(from, to)
	if !ok {
		r.fails++
		return
	}
	r.reads = append(r.reads, sentRead{from: from, data: append(bytes.Clone(head), tail...),
		fromAcked: int32(r.AckedSeq()-from) > 0})
	return
}

// TestPartialAckReplayFromRing: a record is acknowledged part-way and the
// segment after the acknowledged part is lost. When it is retransmitted,
// the NIC's context recovery re-reads the record's prefix — bytes TCP has
// already released — from the send ring, where the retention floor kept
// them: the replayed prefix is the record as written (header, plaintext),
// and the retransmitted frame carries exactly the bytes of the
// software-sealed record.
func TestPartialAckReplayFromRing(t *testing.T) {
	cliCfg, srvCfg := testCfgPair()
	plain := payload(MaxPlaintext, 21)
	sealed := sealReference(t, cliCfg.Key, cliCfg.TxIV, 0, plain)
	var (
		recStart uint32
		lostSeq  uint32 // the lost segment's sequence, once chosen
		dataSegs int
		resent   []byte // the retransmission's payload as it left the NIC
	)
	w := newFilterWorld(cleanLink(), func(f wire.Frame) bool {
		pkt, err := wire.Parse(f)
		if err != nil || len(pkt.Payload) == 0 {
			return false
		}
		if dataSegs++; dataSegs == 4 {
			lostSeq = pkt.Seq // mid-record: three segments before it get acked
			return true
		}
		if pkt.Seq == lostSeq && resent == nil {
			resent = bytes.Clone(pkt.Payload)
		}
		return false
	})
	var received bytes.Buffer
	w.srvStack.Listen(443, func(s *tcpip.Socket) {
		conn, err := NewConn(s, srvCfg)
		if err != nil {
			t.Fatal(err)
		}
		conn.OnPlain = func(pc PlainChunk) { received.Write(pc.Data) }
		conn.OnError = func(err error) { t.Errorf("server: %v", err) }
	})
	var rec *readRecorder
	var cli *Conn
	w.cliStack.Connect(wire.Addr{IP: w.srvStack.IP(), Port: 443}, func(s *tcpip.Socket) {
		var err error
		if cli, err = NewConn(s, cliCfg); err != nil {
			t.Fatal(err)
		}
		if err := cli.EnableTxOffload(w.cliNIC, false); err != nil {
			t.Fatal(err)
		}
		rec = &readRecorder{Socket: s}
		cli.retain.Ring = rec
		recStart = s.WriteSeq()
		if n := cli.Write(plain); n != len(plain) {
			t.Fatalf("wrote %d of %d bytes", n, len(plain))
		}
	})
	w.sim.RunUntil(100 * time.Millisecond)

	if !bytes.Equal(received.Bytes(), plain) {
		t.Fatalf("server received %d bytes, not the %d written", received.Len(), len(plain))
	}
	if resent == nil {
		t.Fatal("the lost segment was never retransmitted")
	}
	off := int(lostSeq - recStart)
	if !bytes.Equal(resent, sealed[off:off+len(resent)]) {
		t.Error("the retransmitted frame differs from the software-sealed record")
	}
	replayed := false
	for _, r := range rec.reads {
		if r.from != recStart || !r.fromAcked {
			continue
		}
		replayed = true
		want := append(sealed[:HeaderLen:HeaderLen], plain...)
		if !bytes.Equal(r.data, want[:len(r.data)]) || len(r.data) != off {
			t.Errorf("replayed %d bytes of the record's %d-byte prefix, or not its plaintext", len(r.data), off)
		}
	}
	if !replayed || rec.fails != 0 {
		t.Errorf("no replay read the record's acknowledged prefix (%d reads, %d refused)", len(rec.reads), rec.fails)
	}
}

// TestClosedRingNotRecycledWhileRetained: a connection torn down with its
// transmit engine still attached keeps its send ring — the engine could
// still replay from it — so the next connection gets a ring of its own;
// once DisableTxOffload releases it, the ring is recycled and the closed
// socket no longer reads from it.
func TestClosedRingNotRecycledWhileRetained(t *testing.T) {
	w := newWorld(cleanLink())
	cliCfg, srvCfg := testCfgPair()
	w.srvStack.Listen(443, func(s *tcpip.Socket) {
		conn, err := NewConn(s, srvCfg)
		if err != nil {
			t.Fatal(err)
		}
		conn.OnPlain = func(PlainChunk) {}
		conn.OnClose = func(*Conn) { s.Close() }
	})
	open := func() *Conn {
		var c *Conn
		w.cliStack.Connect(wire.Addr{IP: w.srvStack.IP(), Port: 443}, func(s *tcpip.Socket) {
			var err error
			if c, err = NewConn(s, cliCfg); err != nil {
				t.Fatal(err)
			}
			if err := c.EnableTxOffload(w.cliNIC, false); err != nil {
				t.Fatal(err)
			}
		})
		w.sim.RunFor(time.Millisecond)
		if c == nil {
			t.Fatal("connection not established")
		}
		return c
	}
	// ringStart writes one record on a fresh connection and returns the
	// first byte of its ring, where that record starts.
	msg := payload(1000, 22)
	ringStart := func(c *Conn) (*byte, uint32) {
		start := c.Socket().WriteSeq()
		if c.Write(msg) != len(msg) {
			t.Fatal("short write")
		}
		head, _, ok := c.Socket().ReadSent(start, start+1)
		if !ok {
			t.Fatal("the record just written is not in the ring")
		}
		return &head[0], start
	}

	a := open()
	ringA, startA := ringStart(a)
	want, _, _ := a.Socket().ReadSent(startA, startA+uint32(HeaderLen+len(msg)+TagLen))
	want = bytes.Clone(want)
	a.Close()
	w.sim.RunFor(10 * time.Millisecond)
	if a.Socket().State() != "closed" {
		t.Fatalf("first connection is %s, want closed", a.Socket().State())
	}
	if ringB, _ := ringStart(open()); ringB == ringA {
		t.Fatal("a ring the transmit retainer still holds went to the next connection")
	}
	if got, _, ok := a.Socket().ReadSent(startA, startA+uint32(len(want))); !ok || !bytes.Equal(got, want) {
		t.Error("the closed socket's retained record is gone or changed before DisableTxOffload")
	}

	a.DisableTxOffload()
	if _, _, ok := a.Socket().ReadSent(startA, startA+1); ok {
		t.Error("the closed socket still reads its ring after DisableTxOffload")
	}
	if ringC, _ := ringStart(open()); ringC != ringA {
		t.Error("the released ring was not recycled for the next connection")
	}
}

// TestNewConnWriteNoAlloc: on a stack whose ring pool is warm, a new
// connection's Write of two whole records allocates nothing, with transmit
// offload and without: each record is built in the socket's send ring, and
// the ring is a recycled one.
func TestNewConnWriteNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting unreliable under -race")
	}
	for _, txOff := range []bool{false, true} {
		name := "software"
		if txOff {
			name = "offload"
		}
		t.Run(name, func(t *testing.T) {
			w := newWorld(cleanLink())
			cliCfg, srvCfg := testCfgPair()
			w.srvStack.Listen(443, func(s *tcpip.Socket) {
				conn, err := NewConn(s, srvCfg)
				if err != nil {
					t.Fatal(err)
				}
				conn.OnPlain = func(PlainChunk) {}
				conn.OnClose = func(*Conn) { s.Close() }
			})
			const conns = 16
			open := func() []*Conn {
				var cs []*Conn
				for i := 0; i < conns; i++ {
					w.cliStack.Connect(wire.Addr{IP: w.srvStack.IP(), Port: 443}, func(s *tcpip.Socket) {
						c, err := NewConn(s, cliCfg)
						if err != nil {
							t.Fatal(err)
						}
						if txOff {
							if err := c.EnableTxOffload(w.cliNIC, false); err != nil {
								t.Fatal(err)
							}
						}
						s.OnClose = func(*tcpip.Socket) { c.DisableTxOffload() }
						cs = append(cs, c)
					})
				}
				w.sim.RunFor(time.Millisecond)
				if len(cs) != conns {
					t.Fatalf("%d of %d connections established", len(cs), conns)
				}
				return cs
			}
			data := payload(2*MaxPlaintext, 23)
			// Warm up: a round of connections writes, closes and tears
			// down, leaving its rings on the stack's free list, the frame
			// pool and the event queue at this load's size.
			for _, c := range open() {
				c.Write(data)
				c.Close()
			}
			w.sim.RunFor(100 * time.Millisecond)

			cs, i := open(), 0
			allocs := testing.AllocsPerRun(conns-1, func() {
				if n := cs[i].Write(data); n != len(data) {
					t.Fatalf("wrote %d of %d bytes", n, len(data))
				}
				i++
			})
			if allocs != 0 {
				t.Errorf("a new connection's Write of two records allocates %v times", allocs)
			}
		})
	}
}
