package nic

import (
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/cycles"
	"repro/internal/netsim"
	"repro/internal/tcpip"
	"repro/internal/wire"
)

// requireOnlyFrameAllocs runs an overloaded round repeatedly and requires
// that it allocate nothing but the frames the pool makes: a ring holds up
// to ringDepth frames at once and the pool keeps fewer per size class, so
// overload makes the pool allocate, but the rings themselves never grow.
// The collector is off meanwhile, because its own work counts as mallocs.
func requireOnlyFrameAllocs(t *testing.T, pool *wire.FramePool, round func()) {
	t.Helper()
	if raceEnabled {
		return
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 5
	made := pool.Stats().News
	allocs := testing.AllocsPerRun(runs, round)
	// AllocsPerRun runs round once more, untimed, first.
	if frames := float64(pool.Stats().News-made) / (runs + 1); allocs != frames {
		t.Errorf("an overloaded round allocates %v objects, want only the %v frames the pool made", allocs, frames)
	}
}

// TestTxRingFullRingsDoorbell posts more packets than the transmit ring
// holds in one event. The post that finds the ring full rings the
// doorbell at once, as a driver does, so every frame reaches the link in
// post order: none is lost and the ring never grows.
func TestTxRingFullRingsDoorbell(t *testing.T) {
	const posts = ringDepth + 10
	var pool *wire.FramePool
	var parsed wire.Packet
	sent := make([]uint32, 0, posts)
	sim, _, n := bareNIC(func(f wire.Frame) {
		if err := wire.ParseInto(f, &parsed); err != nil {
			t.Fatalf("NIC emitted an unparseable frame: %v", err)
		}
		sent = append(sent, parsed.Seq)
		pool.Put(f)
	}, Config{})
	pool = sim.Pool()
	pkt := &wire.Packet{Flow: flowTo(1).Reverse(), Flags: wire.FlagACK, Payload: make([]byte, 64)}
	round := func() {
		sent = sent[:0]
		for i := 0; i < posts; i++ {
			pkt.Seq = uint32(i)
			n.Transmit(pkt)
		}
		if len(sent) != ringDepth {
			t.Fatalf("%d frames on the wire before the doorbell event, want the %d of the full ring", len(sent), ringDepth)
		}
		flush(sim)
	}

	round()
	for i, seq := range sent {
		if seq != uint32(i) {
			t.Fatalf("frame %d carries seq %d: the wire order is not the post order", i, seq)
		}
	}
	if len(sent) != posts {
		t.Fatalf("%d frames on the wire, want %d", len(sent), posts)
	}
	st := n.Stats()
	if st.TxDoorbells != 2 || st.TxDoorbellPackets != posts {
		t.Errorf("TxDoorbells = %d flushing %d packets, want 2 (the forced one and the event) flushing %d",
			st.TxDoorbells, st.TxDoorbellPackets, posts)
	}
	if ps := pool.Stats(); ps.Gets != ps.Puts {
		t.Errorf("frame pool: %d gets, %d puts", ps.Gets, ps.Puts)
	}
	if cap(n.txRing) != ringDepth {
		t.Errorf("transmit ring grew to %d slots, want %d", cap(n.txRing), ringDepth)
	}
	requireOnlyFrameAllocs(t, pool, round)
}

// junkFrame returns a pooled frame too short to carry a flow: the NIC
// steers it to queue 0 and completes it as a bad frame.
func junkFrame(pool *wire.FramePool) wire.Frame { return pool.Get(10) }

// TestRxRingFullDrops delivers more frames than the receive ring holds
// before a poll: the excess is dropped as a stalled ring drops, counted in
// RxRingStallDrops and returned to the pool, and the ring never grows.
func TestRxRingFullDrops(t *testing.T) {
	const extra = 10
	sim, _, n := bareNIC(func(wire.Frame) {}, Config{})
	pool := sim.Pool()
	round := func() {
		for i := 0; i < ringDepth+extra; i++ {
			n.DeliverFrame(junkFrame(pool))
		}
		flush(sim)
	}

	round()
	st := n.Stats()
	if st.RxRingStallDrops != extra || st.RxRingStalls != 0 {
		t.Errorf("RxRingStallDrops = %d in %d stalls, want %d in none", st.RxRingStallDrops, st.RxRingStalls, extra)
	}
	if st.RxBadFrames != ringDepth {
		t.Errorf("RxBadFrames = %d, want the %d frames the ring took", st.RxBadFrames, ringDepth)
	}
	if ps := pool.Stats(); ps.Gets != ps.Puts {
		t.Errorf("frame pool: %d gets, %d puts", ps.Gets, ps.Puts)
	}
	if cap(n.rxRing) != ringDepth {
		t.Errorf("receive ring grew to %d slots, want %d", cap(n.rxRing), ringDepth)
	}
	requireOnlyFrameAllocs(t, pool, round)
}

// TestRxRingFullTCPRecovers runs a two-host transfer through a receive
// ring that a burst of junk fills just before a data segment lands: the
// segment is dropped with the burst's excess, and TCP's retransmission
// still delivers every byte, in order.
func TestRxRingFullTCPRecovers(t *testing.T) {
	sim := netsim.New()
	model := cycles.DefaultModel()
	link := netsim.NewLink(sim, netsim.LinkConfig{Gbps: 10, Latency: time.Microsecond})
	a := tcpip.NewStack(sim, [4]byte{10, 0, 0, 1}, &model, &cycles.Ledger{})
	b := tcpip.NewStack(sim, [4]byte{10, 0, 0, 2}, &model, &cycles.Ledger{})
	na := New(a, link.SendAtoB, Config{})
	nb := New(b, link.SendBtoA, Config{})
	pool := sim.Pool()
	link.AttachA(na)
	// The tenth data segment arrives behind a full ring's worth of junk.
	dataFrames := 0
	link.AttachB(netsim.EndpointFunc(func(f wire.Frame) {
		if len(f) > 100 {
			if dataFrames++; dataFrames == 10 {
				for i := 0; i < ringDepth; i++ {
					nb.DeliverFrame(junkFrame(pool))
				}
			}
		}
		nb.DeliverFrame(f)
	}))

	const size = 256 << 10
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i*7 + i>>8)
	}
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
		if w := s.Write(data); w != size {
			t.Fatalf("wrote %d of %d bytes", w, size)
		}
	})
	sim.RunUntil(time.Second)

	if dataFrames < 10 {
		t.Fatalf("only %d data segments arrived: the burst never ran", dataFrames)
	}
	if string(got) != string(data) {
		t.Fatalf("received %d bytes, want the %d sent, in order", len(got), size)
	}
	// Every junk frame is either completed as bad or dropped, so drops
	// beyond the junk's are data segments.
	if st := nb.Stats(); st.RxBadFrames+st.RxRingStallDrops <= ringDepth {
		t.Errorf("%d junk frames completed and %d frames dropped: no data segment met a full ring",
			st.RxBadFrames, st.RxRingStallDrops)
	}
	if a.Stats.Retransmits == 0 {
		t.Error("the sender retransmitted nothing: no data segment was dropped")
	}
	if pool.InUse() != 0 {
		t.Errorf("frame pool leak: %d frames out", pool.InUse())
	}
}
