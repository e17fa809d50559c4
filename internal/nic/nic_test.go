package nic

import (
	"testing"
	"time"

	"repro/internal/cycles"
	"repro/internal/meta"
	"repro/internal/netsim"
	"repro/internal/offload"
	"repro/internal/tcpip"
	"repro/internal/wire"
)

// passOps is a trivial offload: every message is "header 4B + body", magic
// byte 0x77, length in the next byte; it flags packets it processed.
type passOps struct {
	bodyBytes int
}

func (o *passOps) HeaderLen() int { return 4 }
func (o *passOps) ParseHeader(h []byte) (offload.MsgLayout, bool) {
	if h[0] != 0x77 {
		return offload.MsgLayout{}, false
	}
	return offload.MsgLayout{Total: 4 + int(h[1]), Header: 4}, true
}
func (o *passOps) BeginMessage(offload.MsgLayout, []byte, uint64)       {}
func (o *passOps) ResumeMessage(offload.MsgLayout, []byte, uint64, int) {}
func (o *passOps) Body(_ uint32, data []byte, _ int)                    { o.bodyBytes += len(data) }
func (o *passOps) Trailer(uint32, []byte, int)                          {}
func (o *passOps) EndMessage() bool                                     { return true }
func (o *passOps) AbortMessage()                                        {}
func (o *passOps) NoteDiscontinuity()                                   {}
func (o *passOps) ReplayBody([]byte, int)                               {}
func (o *passOps) PacketVerdict(p, ok bool) meta.RxFlags {
	if p {
		return meta.TLSOffloaded
	}
	return 0
}

func msg(body []byte) []byte {
	out := append([]byte{0x77, byte(len(body)), 0, 0}, body...)
	return out
}

func world(t *testing.T, cfg Config) (*netsim.Simulator, *tcpip.Stack, *tcpip.Stack, *NIC, *NIC) {
	t.Helper()
	sim := netsim.New()
	model := cycles.DefaultModel()
	link := netsim.NewLink(sim, netsim.LinkConfig{Latency: time.Microsecond})
	lgA, lgB := &cycles.Ledger{}, &cycles.Ledger{}
	a := tcpip.NewStack(sim, [4]byte{10, 0, 0, 1}, &model, lgA)
	bStk := tcpip.NewStack(sim, [4]byte{10, 0, 0, 2}, &model, lgB)
	cfgA, cfgB := cfg, cfg
	cfgA.Model, cfgA.Ledger = &model, lgA
	cfgB.Model, cfgB.Ledger = &model, lgB
	na := New(a, link.SendAtoB, cfgA)
	nb := New(bStk, link.SendBtoA, cfgB)
	link.AttachA(na)
	link.AttachB(nb)
	return sim, a, bStk, na, nb
}

func TestPlainForwarding(t *testing.T) {
	sim, a, b, na, nb := world(t, Config{})
	var got []byte
	b.Listen(80, func(s *tcpip.Socket) {
		s.OnReadable = func(s *tcpip.Socket) {
			for {
				c, ok := s.ReadChunk()
				if !ok {
					break
				}
				got = append(got, c.Data...)
			}
		}
	})
	a.Connect(wire.Addr{IP: b.IP(), Port: 80}, func(s *tcpip.Socket) {
		s.Write([]byte("hello through the NIC"))
	})
	sim.RunUntil(time.Second)
	if string(got) != "hello through the NIC" {
		t.Fatalf("got %q", got)
	}
	if na.Stats().TxPackets == 0 || nb.Stats().RxPackets == 0 {
		t.Errorf("NIC stats empty: tx=%d rx=%d", na.Stats().TxPackets, nb.Stats().RxPackets)
	}
}

func TestRxEngineInvokedAndFlagsDelivered(t *testing.T) {
	sim, a, b, _, nb := world(t, Config{})
	ops := &passOps{}
	var flags []meta.RxFlags
	b.Listen(80, func(s *tcpip.Socket) {
		eng := offload.NewRxEngine(ops, s.ReadSeq(), nil)
		nb.AttachRx(s.Flow().Reverse(), eng)
		s.OnReadable = func(s *tcpip.Socket) {
			for {
				c, ok := s.ReadChunk()
				if !ok {
					break
				}
				flags = append(flags, c.Flags)
			}
		}
	})
	body := make([]byte, 100)
	a.Connect(wire.Addr{IP: b.IP(), Port: 80}, func(s *tcpip.Socket) {
		s.Write(msg(body))
	})
	sim.RunUntil(time.Second)
	if ops.bodyBytes != len(body) {
		t.Errorf("engine processed %d body bytes, want %d", ops.bodyBytes, len(body))
	}
	if len(flags) == 0 || !flags[0].Has(meta.TLSOffloaded) {
		t.Errorf("flags not delivered: %v", flags)
	}
}

func TestDetachStopsEngine(t *testing.T) {
	sim, a, b, _, nb := world(t, Config{})
	ops := &passOps{}
	var flow wire.FlowID
	b.Listen(80, func(s *tcpip.Socket) {
		flow = s.Flow().Reverse()
		nb.AttachRx(flow, offload.NewRxEngine(ops, s.ReadSeq(), nil))
		s.OnReadable = func(s *tcpip.Socket) {
			for {
				if _, ok := s.ReadChunk(); !ok {
					break
				}
			}
		}
	})
	var sock *tcpip.Socket
	a.Connect(wire.Addr{IP: b.IP(), Port: 80}, func(s *tcpip.Socket) {
		sock = s
		s.Write(msg(make([]byte, 10)))
	})
	sim.RunUntil(100 * time.Millisecond)
	first := ops.bodyBytes
	if first != 10 {
		t.Fatalf("engine saw %d bytes", first)
	}
	nb.DetachRx(flow)
	sock.Write(msg(make([]byte, 10)))
	sim.RunUntil(time.Second)
	if ops.bodyBytes != first {
		t.Error("engine still invoked after DetachRx")
	}
}

// TestReattachReplacesTxEngine: a flow has one transmit engine, so an
// attach over an existing one replaces it and only the new engine sees the
// flow's packets.
func TestReattachReplacesTxEngine(t *testing.T) {
	sim, a, b, na, _ := world(t, Config{})
	b.Listen(80, func(*tcpip.Socket) {})
	oldOps, newOps := &passOps{}, &passOps{}
	a.Connect(wire.Addr{IP: b.IP(), Port: 80}, func(s *tcpip.Socket) {
		na.AttachTx(s.Flow(), offload.NewTxEngine(oldOps, nil, s.WriteSeq()))
		na.AttachTx(s.Flow(), offload.NewTxEngine(newOps, nil, s.WriteSeq()))
		s.Write(msg(make([]byte, 100)))
	})
	sim.RunUntil(time.Second)
	if oldOps.bodyBytes != 0 || newOps.bodyBytes != 100 {
		t.Errorf("replaced engine saw %d body bytes, new one %d; want 0 and 100",
			oldOps.bodyBytes, newOps.bodyBytes)
	}
}

func TestContextCacheEviction(t *testing.T) {
	// More offloaded flows than cache slots: every flow switch misses.
	sim, a, b, _, nb := world(t, Config{CtxCacheFlows: 2})
	const conns = 4
	accepted := 0
	b.Listen(80, func(s *tcpip.Socket) {
		nb.AttachRx(s.Flow().Reverse(), offload.NewRxEngine(&passOps{}, s.ReadSeq(), nil))
		accepted++
		s.OnReadable = func(s *tcpip.Socket) {
			for {
				if _, ok := s.ReadChunk(); !ok {
					break
				}
			}
		}
	})
	socks := make([]*tcpip.Socket, 0, conns)
	for i := 0; i < conns; i++ {
		a.Connect(wire.Addr{IP: b.IP(), Port: 80}, func(s *tcpip.Socket) {
			socks = append(socks, s)
		})
	}
	sim.RunUntil(100 * time.Millisecond)
	if accepted != conns {
		t.Fatalf("only %d conns", accepted)
	}
	// Round-robin messages across flows to defeat the LRU.
	for round := 0; round < 5; round++ {
		for _, s := range socks {
			s.Write(msg(make([]byte, 8)))
			sim.RunUntil(sim.Now() + 10*time.Millisecond)
		}
	}
	if nb.Stats().CtxCacheMiss < uint64(conns) {
		t.Errorf("expected eviction misses, got %d", nb.Stats().CtxCacheMiss)
	}
	if nb.cfg.Ledger.PCIeBytes(cycles.CtxDMA) == 0 {
		t.Error("misses charged no context DMA")
	}
}

// flush drains the same-timestamp poll/doorbell cascade, for tests that
// call the device directly instead of through a link: DeliverFrame and
// Transmit only post descriptors; the batched completion events do the
// work.
func flush(sim *netsim.Simulator) { sim.RunUntil(sim.Now()) }

func TestBadFramesCounted(t *testing.T) {
	sim, _, _, _, nb := world(t, Config{})
	nb.DeliverFrame([]byte{1, 2, 3})
	flush(sim)
	if nb.Stats().RxBadFrames != 1 {
		t.Errorf("RxBadFrames = %d", nb.Stats().RxBadFrames)
	}
}
