package ktls

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/nic"
	"repro/internal/tcpip"
	"repro/internal/wire"
)

// TestConnLifecycleAllocs pins what one offloaded TLS connection costs the
// heap from SYN to teardown, on NICs whose context cache holds fewer
// contexts than there are live connections (so contexts are evicted and
// reloaded, as under churn). Each connection connects, wraps both ends in
// a Conn, enables transmit offload on the client and receive offload on
// the server, sends six 4 KiB records, closes, and detaches both contexts.
// A first round at the same concurrency warms everything that is reused
// across connections: the stacks' send rings, the frame pool, the links'
// delivery nodes, the event heap, the NICs' and stacks' maps and the
// GHASH scratch pool. The collector is off while the round is measured, so
// nothing pooled is lost in the middle of it.
//
// The count is whole objects per connection, rounded down as
// testing.AllocsPerRun does: a round also makes a few allocations that
// belong to no connection (sync.Pools that a collection during the warm-up
// emptied fill again). What each connection makes, by site:
//
//	tcpip Stack.newSocket       2: the Socket per end (its timers, which
//	                            fire the socket itself, and its congestion
//	                            state inside it)
//	ktls  NewConn               2: the Conn per end (its socket callbacks
//	                            are package functions that find it as the
//	                            socket's Owner)
//	ktls  EnableTxOffload       1: the transmit context (HW, ops, engine)
//	l5p   TxRetainer.Grow       1: the retainer's record index
//	ktls  EnableRxOffload       1: the receive context, whose engine calls
//	                            the Conn's resync mailbox and whose ops
//	                            emit to the Conn, as interfaces
//	gcm   Stream.seek           6: one CTR per received record
//	                            (crypto/cipher.NewCTR; a sealing Stream
//	                            runs the stdlib's fused Seal from any
//	                            counter and keeps none)
//
// The server socket's receive queue and its assembler's queue, message
// result and kept bytes are arrays the stack's Spares lend and the closed
// connections of the warm-up handed back.
func TestConnLifecycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting unreliable under -race")
	}
	const (
		conns      = 32
		cacheFlows = 24 // below both NICs' live context count
		records    = 6
		recordSize = 4096
	)
	w := newWorldNIC(cleanLink(), nic.Config{CtxCacheFlows: cacheFlows})
	cliCfg, srvCfg := testCfgPair()
	cliCfg.RecordSize, srvCfg.RecordSize = recordSize, recordSize
	data := payload(records*recordSize, 31)

	// Every callback is bound once, for all connections, so the count is
	// the library's alone.
	got, closed := 0, 0
	onPlain := func(pc PlainChunk) { got += len(pc.Data) }
	srvClose := func(c *Conn) {
		c.DisableRxOffload()
		c.Socket().Close()
	}
	w.srvStack.Listen(443, func(s *tcpip.Socket) {
		c, err := NewConn(s, srvCfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.EnableRxOffload(w.srvNIC); err != nil {
			t.Fatal(err)
		}
		c.OnPlain, c.OnClose = onPlain, srvClose
	})
	live := make([]*Conn, 0, conns)
	cliClose := func(s *tcpip.Socket) {
		for i, c := range live {
			if c != nil && c.Socket() == s {
				c.DisableTxOffload()
				live[i] = nil
				closed++
				return
			}
		}
	}
	onEstablished := func(s *tcpip.Socket) {
		c, err := NewConn(s, cliCfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.EnableTxOffload(w.cliNIC, false); err != nil {
			t.Fatal(err)
		}
		s.OnClose = cliClose
		live = append(live, c)
		if n := c.Write(data); n != len(data) {
			t.Fatalf("wrote %d of %d bytes", n, len(data))
		}
		c.Close()
	}
	addr := wire.Addr{IP: w.srvStack.IP(), Port: 443}
	round := func() {
		got, closed, live = 0, 0, live[:0]
		for i := 0; i < conns; i++ {
			w.cliStack.Connect(addr, onEstablished)
		}
		w.sim.RunFor(200 * time.Millisecond)
		if got != conns*len(data) || closed != conns {
			t.Fatalf("%d of %d bytes delivered, %d of %d connections closed", got, conns*len(data), closed, conns)
		}
		for _, d := range []*nic.NIC{w.cliNIC, w.srvNIC} {
			if tx, rx := d.Queue(0).EngineFlows(); d.CacheLen() != 0 || tx+rx != 0 {
				t.Fatalf("NIC state left after the round: %d cached contexts, %d engines", d.CacheLen(), tx+rx)
			}
		}
		if st := w.srvNIC.Stats(); st.CtxCacheMiss == 0 {
			t.Fatal("the context cache never missed: it does not constrain the round")
		}
	}
	round() // warm-up, at the measured round's concurrency

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	round()
	runtime.ReadMemStats(&after)
	const want = 13 // the sum of the sites listed above
	if perConn := (after.Mallocs - before.Mallocs) / conns; perConn != want {
		t.Errorf("a connection's lifecycle allocates %d objects (%d bytes), want %d", perConn,
			(after.TotalAlloc-before.TotalAlloc)/conns, want)
	}
}

// TestClosedConnHandsArraysBack: at the end of its stream a Conn hands its
// assembler's arrays to the stack's spares, so a closed Conn holds no
// receive buffer and the next connection starts on them.
func TestClosedConnHandsArraysBack(t *testing.T) {
	r := runTransfer(t, cleanLink(), payload(3*MaxPlaintext, 7), true, true, false, 20*time.Millisecond)
	// Only an assembler puts byte buffers there: the server Conn's kept
	// bytes, which gathered each record as its segments arrived.
	if b := r.srvConn.Socket().Spares().Bytes(); cap(b) < MaxPlaintext {
		t.Errorf("the stack's spares hold a %d-byte buffer after the Conn closed, want its record buffer", cap(b))
	}
	if r.srvConn.asm.Buffered() != 0 {
		t.Errorf("%d bytes still buffered", r.srvConn.asm.Buffered())
	}
}
