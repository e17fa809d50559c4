package netsim

import (
	"testing"
	"time"

	"repro/internal/wire"
)

// poolEndpoint returns every delivered frame to the pool, the way the NIC
// does after processing a receive batch.
type poolEndpoint struct {
	pool  *wire.FramePool
	count int
}

func (e *poolEndpoint) DeliverFrame(f wire.Frame) {
	e.count++
	e.pool.Put(f)
}

// TestLinkPoolAccounting: with a pool on the link, every frame a sender
// gets is eventually put back — by the link on drops and replaced clones,
// by the endpoint on deliveries — so gets == puts once the sim quiesces.
func TestLinkPoolAccounting(t *testing.T) {
	pool := wire.NewFramePool()
	s := New()
	l := NewLink(s, LinkConfig{
		Gbps:    10,
		Latency: time.Microsecond,
		MTU:     600,
		AtoB: FaultConfig{
			LossProb:    0.2,
			DupProb:     0.2,
			CorruptProb: 0.2,
			CEMarkProb:  0.2,
			ReorderProb: 0.2,
			Burst:       &GilbertElliott{PGoodBad: 0.3, PBadGood: 0.3, LossGood: 0.05, LossBad: 0.8},
			Blackouts:   []Blackout{{Start: 50 * time.Microsecond, End: 80 * time.Microsecond}},
			Seed:        7,
		},
	})
	l.SetPool(pool)
	b := &poolEndpoint{pool: pool}
	l.AttachA(EndpointFunc(func(wire.Frame) {}))
	l.AttachB(b)

	pkt := &wire.Packet{
		Flow: wire.FlowID{Src: wire.IPv4(10, 0, 0, 1, 1), Dst: wire.IPv4(10, 0, 0, 2, 2)},
		ECN:  wire.ECNECT0,
	}
	for i := 0; i < 400; i++ {
		// Alternate payload sizes; the large ones exceed the MTU.
		n := 100
		if i%10 == 9 {
			n = 800
		}
		pkt.Payload = make([]byte, n)
		pkt.Seq = uint32(i)
		frame := pool.Get(pkt.WireLen())
		copy(frame[pkt.PayloadOffset():], pkt.Payload)
		pkt.MarshalHeaders(frame)
		l.SendAtoB(frame)
		s.RunFor(2 * time.Microsecond)
	}
	s.Run(0)
	if !s.Quiesced() {
		t.Fatal("sim did not quiesce")
	}
	st := pool.Stats()
	if pool.InUse() != 0 {
		t.Fatalf("pool leak: gets=%d puts=%d inuse=%d", st.Gets, st.Puts, pool.InUse())
	}
	if b.count == 0 {
		t.Fatal("no frames delivered")
	}
	ls := l.StatsAtoB()
	if ls.Dropped == 0 || ls.Duplicated == 0 || ls.Corrupted == 0 || ls.MTUDrops == 0 {
		t.Fatalf("fault schedule did not exercise all pool paths: %+v", ls)
	}
}
