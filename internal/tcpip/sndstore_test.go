package tcpip

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/wire"
)

// TestSendStoreRecycling opens, closes and reopens connections with
// distinct patterns: a closed socket's send store must reach the next
// connection (that is the point), never a second live one, and the closed
// socket must refuse to hand out bytes that are no longer its own.
func TestSendStoreRecycling(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{Gbps: 1, Latency: 100 * time.Microsecond})
	got := map[uint16]*bytes.Buffer{} // by client port
	p.b.Listen(80, func(s *Socket) {
		buf := &bytes.Buffer{}
		got[s.Flow().Dst.Port] = buf
		s.OnReadable = func(s *Socket) {
			for c, ok := s.ReadChunk(); ok; c, ok = s.ReadChunk() {
				buf.Write(c.Data)
			}
			if s.EOF() {
				s.Close()
			}
		}
	})
	open := func(pattern []byte, thenClose bool) *Socket {
		return p.a.Connect(wire.Addr{IP: p.b.IP(), Port: 80}, func(s *Socket) {
			if n := s.Write(pattern); n != len(pattern) {
				t.Fatalf("short write %d of %d", n, len(pattern))
			}
			if thenClose {
				s.Close()
			}
		})
	}
	base := func(b []byte) *byte { return &b[:1][0] }
	checkLive := func(s *Socket, pattern []byte) {
		t.Helper()
		b, err := s.StreamBytes(s.sndUna, s.sndUna+uint32(s.BufferedOut()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasSuffix(pattern, b) || len(b) == 0 {
			t.Errorf("live socket's %d buffered bytes are not its pattern's tail", len(b))
		}
	}

	patA, patB, patC, patD := randBytes(20000, 1), randBytes(15000, 2), randBytes(30000, 3), randBytes(9000, 4)

	first := open(patA, true)
	p.sim.RunUntil(10 * time.Millisecond)
	if first.State() != "closed" {
		t.Fatalf("first connection is %s, want closed", first.State())
	}
	if _, err := first.StreamBytes(first.sndUna, first.sndUna); err == nil {
		t.Error("StreamBytes on a torn-down socket did not fail")
	}
	if len(p.a.sndFree) != 1 {
		t.Fatalf("free list holds %d stores after one teardown, want 1", len(p.a.sndFree))
	}
	recycled := base(p.a.sndFree[0])

	// Two live connections at once: one starts on the recycled store, the
	// other must not share it.
	second, third := open(patB, false), open(patC, false)
	p.sim.RunUntil(10*time.Millisecond + 250*time.Microsecond)
	if second.BufferedOut() == 0 || third.BufferedOut() == 0 {
		t.Fatal("timing: nothing buffered 250µs after connecting")
	}
	if base(second.sndStore) != recycled {
		t.Error("the reopened connection did not take the recycled store")
	}
	if base(third.sndStore) == base(second.sndStore) {
		t.Fatal("two live sockets share one send store")
	}
	checkLive(second, patB)
	checkLive(third, patC)

	// Close one while the other still has bytes in flight, and let a fourth
	// connection take over its store.
	second.Close()
	p.sim.RunUntil(11 * time.Millisecond)
	if second.State() != "closed" || third.State() != "established" {
		t.Fatalf("second %s, third %s", second.State(), third.State())
	}
	third.Write(patC[:5000])
	fourth := open(patD, false)
	p.sim.RunUntil(11*time.Millisecond + 250*time.Microsecond)
	if base(fourth.sndStore) != recycled {
		t.Error("the store did not go round a second time")
	}
	if base(fourth.sndStore) == base(third.sndStore) {
		t.Fatal("recycled store aliases a live socket's")
	}
	checkLive(third, patC[:5000])
	checkLive(fourth, patD)
	third.Close()
	fourth.Close()
	p.sim.RunUntil(time.Second)

	want := map[uint16][]byte{
		first.Flow().Src.Port:  patA,
		second.Flow().Src.Port: patB,
		third.Flow().Src.Port:  append(append([]byte(nil), patC...), patC[:5000]...),
		fourth.Flow().Src.Port: patD,
	}
	for port, w := range want {
		if g := got[port]; g == nil || !bytes.Equal(g.Bytes(), w) {
			t.Errorf("port %d: server did not receive the connection's own bytes", port)
		}
	}
}
