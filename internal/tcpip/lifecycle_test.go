package tcpip

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/cycles"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// poolDevice is rawDevice without allocation, as on the NIC: transmitted
// frames come from the simulator's pool, the receiving device returns them
// there, and every received frame parses into one reused packet.
type poolDevice struct {
	stack *Stack
	send  func(wire.Frame)
	pool  *wire.FramePool
	rx    wire.Packet
}

func (d *poolDevice) Transmit(pkt *wire.Packet) {
	f := d.pool.Get(pkt.WireLen())
	copy(f[pkt.PayloadOffset():], pkt.Payload)
	pkt.MarshalHeaders(f)
	d.send(f)
}

func (d *poolDevice) DeliverFrame(f wire.Frame) {
	if err := wire.ParseInto(f, &d.rx); err != nil {
		panic(err)
	}
	d.stack.Input(&d.rx, 0)
	d.pool.Put(f)
}

// TestSocketLifecycleAllocs pins what a plain TCP connection costs the heap
// from SYN to teardown: 16 concurrent connections each connect, send 64 KiB
// client to server over a clean link, and close from both ends. A first
// round at the same concurrency warms everything reused across
// connections — the send rings, the receive queues (the stack's Spares),
// the frame pool, the link's delivery nodes, the event heap and the
// stacks' socket maps — and the collector is off while the second round
// is measured. What remains is the Socket, one per end: its timers fire
// the socket itself and its congestion state lives inside it.
func TestSocketLifecycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting unreliable under -race")
	}
	const conns = 16
	sim := netsim.New()
	model := cycles.DefaultModel()
	link := netsim.NewLink(sim, netsim.LinkConfig{Gbps: 100, Latency: 2 * time.Microsecond})
	a := NewStack(sim, [4]byte{10, 0, 0, 1}, &model, &cycles.Ledger{})
	b := NewStack(sim, [4]byte{10, 0, 0, 2}, &model, &cycles.Ledger{})
	devA := &poolDevice{stack: a, send: link.SendAtoB, pool: sim.Pool()}
	devB := &poolDevice{stack: b, send: link.SendBtoA, pool: sim.Pool()}
	a.SetDevice(devA)
	b.SetDevice(devB)
	link.AttachA(devA)
	link.AttachB(devB)
	data := randBytes(64<<10, 5)

	// Every callback is bound once, for all connections, so the count is
	// the stack's alone.
	got, closed := 0, 0
	srvRead := func(s *Socket) {
		for c, ok := s.ReadChunk(); ok; c, ok = s.ReadChunk() {
			got += len(c.Data)
		}
		if s.EOF() {
			s.Close()
		}
	}
	b.Listen(80, func(s *Socket) { s.OnReadable = srvRead })
	cliClose := func(*Socket) { closed++ }
	onEstablished := func(s *Socket) {
		s.OnClose = cliClose
		if n := s.Write(data); n != len(data) {
			t.Fatalf("wrote %d of %d bytes", n, len(data))
		}
		s.Close()
	}
	addr := wire.Addr{IP: b.IP(), Port: 80}
	round := func() {
		got, closed = 0, 0
		for i := 0; i < conns; i++ {
			a.Connect(addr, onEstablished)
		}
		sim.RunFor(100 * time.Millisecond)
		if got != conns*len(data) || closed != conns || len(a.socks)+len(b.socks) != 0 {
			t.Fatalf("%d of %d bytes delivered, %d of %d connections closed, %d sockets left",
				got, conns*len(data), closed, conns, len(a.socks)+len(b.socks))
		}
	}
	round() // warm-up, at the measured round's concurrency

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	round()
	runtime.ReadMemStats(&after)
	const want = 2 // a Socket per end
	if perConn := (after.Mallocs - before.Mallocs) / conns; perConn != want {
		t.Errorf("a connection's lifecycle allocates %d objects (%d bytes), want %d", perConn,
			(after.TotalAlloc-before.TotalAlloc)/conns, want)
	}
	if n := sim.Pool().InUse(); n != 0 {
		t.Errorf("%d frames not returned to the pool", n)
	}
}
