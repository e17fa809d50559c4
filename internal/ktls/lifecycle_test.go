package ktls

import (
	"bytes"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/nic"
	"repro/internal/offload"
	"repro/internal/tcpip"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// The lifecycle tests run rounds of offloaded TLS connections on NICs whose
// context cache holds fewer contexts than there are live connections (so
// contexts are evicted and reloaded, as under churn). Each connection
// connects, wraps both ends in a Conn, enables transmit offload on the
// client and receive offload on the server, sends six 4 KiB records,
// closes, and detaches both contexts.
const (
	lifecycleConns      = 32
	lifecycleCacheFlows = 24 // below both NICs' live context count
	lifecycleRecords    = 6
	lifecycleRecordSize = 4096
)

// lifecycle is a world and the connection callbacks its rounds share.
type lifecycle struct {
	t    *testing.T
	w    *world
	data []byte
	// exact checks every connection's bytes in order, which binds a
	// closure per connection, and sums the round's record and engine
	// counters; without it only the bytes are counted, and every callback
	// is bound once, for all connections, so an allocation count is the
	// library's alone.
	exact bool
	// enabled, if set, sees each Conn once its offload is enabled.
	enabled func(*Conn)

	got, closed, wrong int
	sums               lifecycleSums // with exact
	live               []*Conn
	cliSpares          *tcpip.Spares
	srvSpares          *tcpip.Spares
	connect            func(*tcpip.Socket)
}

// lifecycleSums are a round's counters, summed over its connections.
type lifecycleSums struct {
	tls Stats // the servers'
	rx  offload.RxStats
	tx  offload.TxStats
}

// newLifecycle wires the rounds' callbacks on w.
func newLifecycle(t *testing.T, w *world, exact bool) *lifecycle {
	l := &lifecycle{t: t, w: w, exact: exact, data: payload(lifecycleRecords*lifecycleRecordSize, 31)}
	cliCfg, srvCfg := testCfgPair()
	cliCfg.RecordSize, srvCfg.RecordSize = lifecycleRecordSize, lifecycleRecordSize
	onPlain := func(pc PlainChunk) { l.got += len(pc.Data) }
	srvClose := func(c *Conn) {
		if l.exact {
			telemetry.Sum(&l.sums.tls, c.Stats)
			telemetry.Sum(&l.sums.rx, c.RxEngine().Stats)
		}
		c.DisableRxOffload()
		c.Socket().Close()
	}
	onError := func(err error) { t.Errorf("server record error: %v", err) }
	w.srvStack.Listen(443, func(s *tcpip.Socket) {
		c, err := NewConn(s, srvCfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.EnableRxOffload(w.srvNIC); err != nil {
			t.Fatal(err)
		}
		l.srvSpares = s.Spares()
		if l.enabled != nil {
			l.enabled(c)
		}
		c.OnPlain, c.OnClose, c.OnError = onPlain, srvClose, onError
		if l.exact {
			off := 0
			c.OnPlain = func(pc PlainChunk) {
				if off+len(pc.Data) > len(l.data) || !bytes.Equal(pc.Data, l.data[off:off+len(pc.Data)]) {
					l.wrong++
				}
				off += len(pc.Data)
				l.got += len(pc.Data)
			}
		}
	})
	cliClose := func(s *tcpip.Socket) {
		for i, c := range l.live {
			if c != nil && c.Socket() == s {
				if l.exact {
					telemetry.Sum(&l.sums.tx, c.TxEngine().Stats)
				}
				c.DisableTxOffload()
				l.live[i] = nil
				l.closed++
				return
			}
		}
	}
	l.connect = func(s *tcpip.Socket) {
		c, err := NewConn(s, cliCfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.EnableTxOffload(w.cliNIC, false); err != nil {
			t.Fatal(err)
		}
		l.cliSpares = s.Spares()
		if l.enabled != nil {
			l.enabled(c)
		}
		s.OnClose = cliClose
		l.live = append(l.live, c)
		if n := c.Write(l.data); n != len(l.data) {
			t.Fatalf("wrote %d of %d bytes", n, len(l.data))
		}
		c.Close()
	}
	l.live = make([]*Conn, 0, lifecycleConns)
	return l
}

// round opens lifecycleConns connections at once and runs them to the end,
// requiring every byte delivered, every connection closed and no NIC state
// left behind.
func (l *lifecycle) round() {
	l.t.Helper()
	l.got, l.closed, l.wrong, l.sums, l.live = 0, 0, 0, lifecycleSums{}, l.live[:0]
	addr := wire.Addr{IP: l.w.srvStack.IP(), Port: 443}
	for i := 0; i < lifecycleConns; i++ {
		l.w.cliStack.Connect(addr, l.connect)
	}
	l.w.sim.RunFor(200 * time.Millisecond)
	if want := lifecycleConns * len(l.data); l.got != want || l.closed != lifecycleConns || l.wrong != 0 {
		l.t.Fatalf("%d of %d bytes delivered (%d chunks wrong), %d of %d connections closed",
			l.got, want, l.wrong, l.closed, lifecycleConns)
	}
	for _, d := range []*nic.NIC{l.w.cliNIC, l.w.srvNIC} {
		if tx, rx := d.Queue(0).EngineFlows(); d.CacheLen() != 0 || tx+rx != 0 {
			l.t.Fatalf("NIC state left after the round: %d cached contexts, %d engines", d.CacheLen(), tx+rx)
		}
	}
	if st := l.w.srvNIC.Stats(); st.CtxCacheMiss == 0 {
		l.t.Fatal("the context cache never missed: it does not constrain the round")
	}
}

// allocsPerConn runs warm rounds, at the measured round's concurrency, and
// then the measured round with the collector off, so nothing pooled is
// lost in the middle of it. The warm-up warms everything that is reused
// across connections: the stacks' send rings and spares, the frame pool,
// the links' delivery nodes, the event heap, the NICs' and stacks' maps
// and the GHASH scratch pool. The count is whole objects per connection,
// rounded down as testing.AllocsPerRun does: a round also makes a few
// allocations that belong to no connection (sync.Pools that a collection
// during the warm-up emptied fill again).
func (l *lifecycle) allocsPerConn(warm int) (objects, bytes uint64) {
	for range warm {
		l.round()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l.round()
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / lifecycleConns, (after.TotalAlloc - before.TotalAlloc) / lifecycleConns
}

// lossyLifecycleWorld is the lifecycle world with the client's third data
// segment of every connection lost once: the server buffers the segments
// behind the hole out of order, its receive engine loses the record
// stream and hands the records around the hole to software, and the
// retransmission makes the client's transmit engine replay the record's
// prefix.
func lossyLifecycleWorld() *world {
	var (
		pkt      wire.Packet
		dataSegs [1 << 16]uint8 // by client port, which a stack never reuses
	)
	return newFilterWorld(cleanLink(), nic.Config{CtxCacheFlows: lifecycleCacheFlows}, func(f wire.Frame) bool {
		if wire.ParseInto(f, &pkt) != nil || len(pkt.Payload) == 0 {
			return false
		}
		n := &dataSegs[pkt.Flow.Src.Port]
		*n = min(*n+1, 255)
		return *n == 3
	})
}

// TestConnLifecycleAllocs pins what one offloaded TLS connection costs the
// heap from SYN to teardown. What each connection makes, by site:
//
//	tcpip Stack.newSocket       2: the Socket per end (its timers, which
//	                            fire the socket itself, and its congestion
//	                            state inside it)
//	ktls  NewConn               2: the Conn per end (its socket callbacks
//	                            are package functions that find it as the
//	                            socket's Owner)
//
// No cipher stream is among them: a gcm.Stream runs the stdlib's fused
// Seal from any counter in both directions and keeps no stdlib object.
//
// The server socket's receive queue and its assembler's queue, message
// result and kept bytes are arrays the stack's Spares lend and the closed
// connections of the warm-up handed back. So are the transmit and receive
// contexts (HW, ops, engine), which DisableTxOffload and DisableRxOffload
// hand back once the NIC has let go of them, and the transmit retainer's
// record index.
func TestConnLifecycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting unreliable under -race")
	}
	l := newLifecycle(t, newWorldNIC(cleanLink(), nic.Config{CtxCacheFlows: lifecycleCacheFlows}), false)
	const want = 4 // the sum of the sites listed above
	if perConn, bytes := l.allocsPerConn(1); perConn != want {
		t.Errorf("a connection's lifecycle allocates %d objects (%d bytes), want %d", perConn, bytes, want)
	}
}

// TestConnLossyLifecycleAllocs pins the same lifecycle when one segment of
// every connection is lost (lossyLifecycleWorld). Two warm-up rounds let
// the stack's spare arrays grow to the loss path's depth: the out-of-order
// list holds 12 segments, and a partial record's buffer holds it and its
// plaintext. Each connection then makes, by site:
//
//	tcpip Stack.newSocket       2: the Socket per end
//	ktls  NewConn               2: the Conn per end
//	tcpip processData          12: a copy of each segment that arrives
//	                            behind the hole (the list it waits on is a
//	                            spare array, drained in place)
//
// The records the receive engine resumes inside (RxOps.ResumeMessage) and
// those software finishes (Conn.partialFallback) allocate no cipher
// stream either. The transmit context's replay scratch, which the retransmission's
// recovery fills, stays with the context when it is handed back.
func TestConnLossyLifecycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting unreliable under -race")
	}
	w := lossyLifecycleWorld()
	l := newLifecycle(t, w, false)
	const want = 16 // the sum of the sites listed above
	perConn, bytes := l.allocsPerConn(2)
	if w.srvStack.Stats.OutOfOrderIn == 0 {
		t.Fatal("no segment arrived out of order: the loss does not reach the receive side")
	}
	if perConn != want {
		t.Errorf("a lossy connection's lifecycle allocates %d objects (%d bytes), want %d", perConn, bytes, want)
	}
}

// TestClosedConnHandsArraysBack: at the end of its stream a Conn hands its
// assembler's arrays to the stack's spares, so a closed Conn holds no
// receive buffer and the next connection starts on them.
func TestClosedConnHandsArraysBack(t *testing.T) {
	r := runTransfer(t, cleanLink(), payload(3*MaxPlaintext, 7), true, true, false, 20*time.Millisecond)
	// Only an assembler puts byte buffers there: the server Conn's kept
	// bytes, which gathered each record as its segments arrived.
	if r.srvConn.Socket().Spares().Bytes(MaxPlaintext) == nil {
		t.Error("the stack's spares hold no record-sized buffer after the Conn closed, want its record buffer")
	}
	if r.srvConn.asm.Buffered() != 0 {
		t.Errorf("%d bytes still buffered", r.srvConn.asm.Buffered())
	}
}

// TestFailedConnHandsArraysBack: a Conn killed by an authentication
// failure, and one whose stream ended inside a record, hand their
// assembler's arrays and their record buffer to the stack's spares as a
// cleanly closed one does; neither reports a clean close.
func TestFailedConnHandsArraysBack(t *testing.T) {
	cliCfg, srvCfg := testCfgPair()
	body := payload(MaxPlaintext, 8)
	for _, tc := range []struct {
		name string
		// send writes to the client's socket: whole records sealed
		// under the wrong key, or the first part of a good one.
		send      func(s *tcpip.Socket)
		wantErr   bool
		minBuffer int // the largest buffer the Conn held
	}{
		{"auth-failure", func(s *tcpip.Socket) {
			key := bytes.Clone(cliCfg.Key)
			key[0] ^= 1
			rec := sealReference(t, key, cliCfg.TxIV, 0, body)
			s.Write(append(rec, sealReference(t, key, cliCfg.TxIV, 1, body)...))
		}, true, len(body) + HeaderLen + TagLen},
		{"truncated", func(s *tcpip.Socket) {
			s.Write(sealReference(t, cliCfg.Key, cliCfg.TxIV, 0, body)[:len(body)/2])
		}, false, len(body) / 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(cleanLink())
			var srv *Conn
			failed, closed := 0, false
			w.srvStack.Listen(443, func(s *tcpip.Socket) {
				var err error
				if srv, err = NewConn(s, srvCfg); err != nil {
					t.Fatal(err)
				}
				srv.OnPlain = func(PlainChunk) {}
				srv.OnError = func(error) { failed++ }
				srv.OnClose = func(*Conn) { closed = true }
			})
			w.cliStack.Connect(wire.Addr{IP: w.srvStack.IP(), Port: 443}, func(s *tcpip.Socket) {
				tc.send(s)
				s.Close()
			})
			w.sim.RunUntil(20 * time.Millisecond)
			if srv == nil || (failed == 1) != tc.wantErr || failed > 1 || closed {
				t.Fatalf("%d errors, closed cleanly %v; want an error: %v", failed, closed, tc.wantErr)
			}
			if srv.rxRec != nil || srv.asm.Buffered() != 0 {
				t.Errorf("the Conn still holds a %d-byte record buffer and %d buffered bytes", cap(srv.rxRec), srv.asm.Buffered())
			}
			sp := srv.Socket().Spares()
			if sp.Bytes(tc.minBuffer) == nil {
				t.Errorf("the stack's spares hold no buffer of at least %d bytes, want the Conn's", tc.minBuffer)
			}
		})
	}
}

// poison scribbles over every context lot holds, in place, and returns how
// many it holds.
func poison[T any](lot *tcpip.Lot[*T], scribbleOn func(*T)) int {
	var held []*T
	for ctx, ok := lot.Take(); ok; ctx, ok = lot.Take() {
		scribbleOn(ctx)
		held = append(held, ctx)
	}
	for _, ctx := range held {
		lot.Put(ctx, contextSparesMax)
	}
	return len(held)
}

// scribble sets every counter of the stats struct p points to.
func scribble(p any) {
	v := reflect.ValueOf(p).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(0xDBDB_DBDB)
	}
}

// TestRecycledContextsReinitialised: a context a destroyed offload handed
// back starts the next connection's offload from scratch. After a round
// whose connections run on recycled contexts, every context the stacks
// hold is poisoned: another key and IV, ops in the middle of a message and
// in the partial-offload ablation, an engine elsewhere in the stream,
// counting into a foreign block, with a chaos hook and counters of its
// own. The next round must still deliver every byte exactly, each engine
// must start at zero counts, every record and engine counter must sum to
// the unpoisoned round's, and the NICs must hold nothing at the end.
func TestRecycledContextsReinitialised(t *testing.T) {
	w := lossyLifecycleWorld()
	l := newLifecycle(t, w, true)
	fresh := 0
	l.enabled = func(c *Conn) {
		switch {
		case c.TxEngine() != nil && c.TxEngine().Stats != (offload.TxStats{}):
			t.Errorf("a transmit engine starts at %+v", c.TxEngine().Stats)
		case c.RxEngine() != nil && c.RxEngine().Stats != (offload.RxStats{}):
			t.Errorf("a receive engine starts at %+v", c.RxEngine().Stats)
		}
		fresh++
	}
	l.round() // fills the lots
	l.round()
	want := l.sums

	rogueKey := bytes.Repeat([]byte{0x5A}, 16)
	var rogueIV [12]byte
	rogueIV[0] = 0x77
	rogue := hwFor(t, rogueKey, rogueIV)
	var foreign offload.RxQueueStats
	hooked := 0
	chaos := offload.RxChaos{
		DropResyncReq: func(uint32) bool { hooked++; return true },
		ForceReject:   func(uint32) bool { hooked++; return true },
	}
	txs := poison(tcpip.LotOf[*txContext](l.cliSpares), func(ctx *txContext) {
		ctx.hw = *rogue
		ctx.ops = TxOps{hw: rogue, live: true, tagReady: true}
		ctx.engine.Init(&ctx.ops, nil, 0xDEAD_BEEF)
		scribble(&ctx.engine.Stats)
	})
	rxs := poison(tcpip.LotOf[*rxContext](l.srvSpares), func(ctx *rxContext) {
		ctx.hw = *rogue
		ctx.ops = RxOps{hw: rogue, live: true, blind: true, noPartial: true, skipMsg: true, wireTagN: 7}
		ctx.engine.Init(&ctx.ops, 0xDEAD_BEEF, nil)
		ctx.engine.SetChaos(chaos)
		ctx.engine.CountInto(&foreign)
		scribble(&ctx.engine.Stats)
	})
	if txs != lifecycleConns || rxs != lifecycleConns {
		t.Fatalf("%d transmit and %d receive contexts held after a round of %d connections", txs, rxs, lifecycleConns)
	}

	fresh = 0
	l.round()
	if fresh != 2*lifecycleConns {
		t.Errorf("%d offloads enabled, want %d", fresh, 2*lifecycleConns)
	}
	if hooked != 0 || foreign != (offload.RxQueueStats{}) {
		t.Errorf("a poisoned context's chaos hook ran %d times, its foreign counters read %+v", hooked, foreign)
	}
	if l.sums != want {
		t.Errorf("on poisoned contexts the round counts\n%+v\nwant, as on clean ones,\n%+v", l.sums, want)
	}
}

// TestChurnHeapBounded: memory follows the connections open, not the
// connections made. After six rounds of lifecycleConns connections the live
// heap is within churnHeapSlack of what it was after two: everything a
// closed connection held is gone or back in a bounded spare list. A single
// object kept per connection — a context, a Socket, a Conn, a retainer's
// record index — would grow the heap by 4 × 32 of it, 32 KiB or more. The
// lossy world holds the same bound: its partial records borrow spare
// buffers long enough for them (Spares.Bytes), so they neither regrow a
// short one nor leave the assemblers' to be made anew.
func TestChurnHeapBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes differ under -race")
	}
	const churnHeapSlack = 24 << 10
	for _, tc := range []struct {
		name  string
		world func() *world
	}{
		{"clean", func() *world { return newWorldNIC(cleanLink(), nic.Config{CtxCacheFlows: lifecycleCacheFlows}) }},
		{"lossy", lossyLifecycleWorld},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := newLifecycle(t, tc.world(), false)
			var heap [7]uint64
			for r := 1; r <= 6; r++ {
				l.round()
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				heap[r] = ms.HeapAlloc
			}
			if grown := int64(heap[6]) - int64(heap[2]); grown > churnHeapSlack {
				t.Errorf("the live heap grew %d bytes from round 2 to round 6 (%v), want at most %d", grown, heap[1:], churnHeapSlack)
			}
		})
	}
}
