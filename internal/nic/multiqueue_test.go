package nic

import (
	"testing"
	"time"

	"repro/internal/cycles"
	"repro/internal/offload"
	"repro/internal/tcpip"
	"repro/internal/wire"
)

// flowTo builds a remote→local flow arriving at the B-side NIC (10.0.0.2)
// with a distinct source port per i, so flows spread over the RSS hash.
func flowTo(i int) wire.FlowID {
	return wire.FlowID{
		Src: wire.Addr{IP: [4]byte{10, 0, 0, 1}, Port: uint16(41000 + i)},
		Dst: wire.Addr{IP: [4]byte{10, 0, 0, 2}, Port: 80},
	}
}

// frameFor marshals one data frame on the flow carrying a passOps message.
func frameFor(flow wire.FlowID, seq uint32, body int) wire.Frame {
	pkt := &wire.Packet{Flow: flow, Seq: seq, Flags: wire.FlagACK, Payload: msg(make([]byte, body))}
	return pkt.Marshal()
}

func TestQueueSteeringDeterministic(t *testing.T) {
	_, _, _, _, nb := world(t, Config{Queues: 4})
	if nb.NumQueues() != 4 {
		t.Fatalf("NumQueues = %d, want 4", nb.NumQueues())
	}
	// The same flow always lands on the same queue, and the spread over
	// many flows uses more than one queue.
	used := map[int]bool{}
	for i := 0; i < 32; i++ {
		f := flowTo(i)
		q := nb.QueueFor(f)
		if again := nb.QueueFor(f); again != q {
			t.Fatalf("flow %d steered to q%d then q%d", i, q.ID(), again.ID())
		}
		if int(f.Hash()%4) != q.ID() {
			t.Errorf("flow %d on q%d, hash says %d", i, q.ID(), f.Hash()%4)
		}
		used[q.ID()] = true
	}
	if len(used) < 2 {
		t.Errorf("32 flows all hashed to %d queue(s)", len(used))
	}
}

func TestPerQueueStatsMergeAndSpread(t *testing.T) {
	sim, _, _, _, nb := world(t, Config{Queues: 4})
	for i := 0; i < 16; i++ {
		nb.DeliverFrame(frameFor(flowTo(i), 1000, 8))
	}
	flush(sim)
	var sum, spread uint64
	queues := 0
	for i := 0; i < nb.NumQueues(); i++ {
		q := nb.Queue(i)
		sum += q.Stats.RxPackets
		if q.Stats.RxPackets > 0 {
			queues++
		}
		spread += q.Stats.RxBytes
	}
	merged := nb.Stats()
	if merged.RxPackets != 16 || sum != merged.RxPackets {
		t.Errorf("RxPackets: merged=%d per-queue sum=%d, want 16", merged.RxPackets, sum)
	}
	if merged.RxBytes != spread {
		t.Errorf("RxBytes: merged=%d per-queue sum=%d", merged.RxBytes, spread)
	}
	if queues < 2 {
		t.Errorf("16 flows landed on %d queue(s), want RSS spread", queues)
	}
}

func TestSharedCacheAcrossQueues(t *testing.T) {
	// A 2-entry cache shared by 4 queues: flows steered to different
	// queues still evict each other, because contexts live in device
	// memory, not queue memory.
	sim, _, _, _, nb := world(t, Config{Queues: 4, CtxCacheFlows: 2})

	// Pick 4 flows on at least 2 distinct queues.
	flows := make([]wire.FlowID, 0, 4)
	used := map[int]bool{}
	for i := 0; len(flows) < 4; i++ {
		f := flowTo(i)
		flows = append(flows, f)
		used[nb.QueueFor(f).ID()] = true
	}
	if len(used) < 2 {
		t.Skip("hash put all probe flows on one queue (would not exercise sharing)")
	}
	for _, f := range flows {
		nb.AttachRx(f, offload.NewRxEngine(&passOps{}, 1000, nil))
	}
	// Round-robin across the flows: 4 live contexts never fit in 2 slots,
	// so every touch after the first round misses and the evicted context
	// is written back over PCIe.
	seq := uint32(1000)
	for round := 0; round < 5; round++ {
		for _, f := range flows {
			nb.DeliverFrame(frameFor(f, seq, 8))
		}
		flush(sim)
		seq += 12
	}
	st := nb.Stats()
	if st.CtxCacheMiss < 16 {
		t.Errorf("CtxCacheMiss = %d, want ≥ 16 (4 flows × 5 rounds thrash a 2-slot cache)", st.CtxCacheMiss)
	}
	if nb.CacheLen() > 2 {
		t.Errorf("CacheLen = %d exceeds the 2-slot bound", nb.CacheLen())
	}
	// Each miss charges a reload, each eviction a write-back: with a full
	// cache the DMA is strictly more than misses × context size.
	ctxDMA := nb.ledger.PCIeBytes(cycles.CtxDMA)
	if ctxDMA <= st.CtxCacheMiss*uint64(ctxBytes) {
		t.Errorf("ctx DMA %d bytes ≤ reload-only %d: eviction write-backs not charged",
			ctxDMA, st.CtxCacheMiss*uint64(ctxBytes))
	}
	for _, f := range flows {
		nb.DetachRx(f)
	}
	if nb.CacheLen() != 0 {
		t.Errorf("CacheLen = %d after detaching every flow", nb.CacheLen())
	}
}

func TestChurnAttachDetachLeavesNoState(t *testing.T) {
	// Churn the engine lifecycle hard and assert every per-queue map and
	// the shared cache return to baseline — the leak the shared-cache
	// refactor could have introduced.
	sim, _, _, _, nb := world(t, Config{Queues: 4, CtxCacheFlows: 8})
	for i := 0; i < 128; i++ {
		f := flowTo(i)
		nb.AttachRx(f, offload.NewRxEngine(&passOps{}, 1000, nil))
		nb.DeliverFrame(frameFor(f, 1000, 8))
		nb.DeliverFrame(frameFor(f, 1012, 8))
		flush(sim)
		if nb.CacheLen() > 8 {
			t.Fatalf("iteration %d: CacheLen %d exceeds bound 8", i, nb.CacheLen())
		}
		nb.DetachRx(f)
		nb.DetachTx(f) // no engine attached: must be a harmless no-op
	}
	if nb.CacheLen() != 0 {
		t.Errorf("shared cache leaked %d contexts", nb.CacheLen())
	}
	for i := 0; i < nb.NumQueues(); i++ {
		q := nb.Queue(i)
		tx, rx := q.EngineFlows()
		if tx != 0 || rx != 0 {
			t.Errorf("q%d leaked state: tx=%d rx=%d", i, tx, rx)
		}
	}
	if st := nb.Stats(); st.RxPackets != 256 {
		t.Errorf("RxPackets = %d, want 256", st.RxPackets)
	}
}

// TestReattachReplacesRxEngine: a flow has one receive engine. Attaching a
// second one detaches the first, whose counters stay counted, and only the
// new engine sees later frames.
func TestReattachReplacesRxEngine(t *testing.T) {
	sim, _, _, _, nb := world(t, Config{Queues: 4, CtxCacheFlows: 8})
	f := flowTo(3)
	oldOps, newOps := &passOps{}, &passOps{}
	old := offload.NewRxEngine(oldOps, 1000, nil)
	nb.AttachRx(f, old)
	nb.DeliverFrame(frameFor(f, 1000, 8))
	flush(sim)
	old.SetFallbackPolicy(offload.DefaultFallbackPolicy())
	old.NoteAuthFailure()

	nb.AttachRx(f, offload.NewRxEngine(newOps, 1012, nil))
	nb.DeliverFrame(frameFor(f, 1012, 8))
	flush(sim)
	if oldOps.bodyBytes != 8 || newOps.bodyBytes != 8 {
		t.Errorf("old engine saw %d body bytes, new %d; want 8 each", oldOps.bodyBytes, newOps.bodyBytes)
	}
	if st := nb.Stats(); st.RxFallbacks != 1 {
		t.Errorf("RxFallbacks = %d, want the replaced engine's 1", st.RxFallbacks)
	}
	q := nb.QueueFor(f)
	if _, rx := q.EngineFlows(); rx != 1 {
		t.Errorf("%d rx flows, want 1", rx)
	}
	nb.DetachRx(f)
	if _, rx := q.EngineFlows(); rx != 0 || nb.CacheLen() != 0 {
		t.Errorf("after detach: %d rx flows, %d cached contexts", rx, nb.CacheLen())
	}
}

func TestChaosInvalidationSharedCacheConsistent(t *testing.T) {
	// Whole-cache chaos invalidation with multiple queues: the cache map
	// and list stay consistent (no stale entries, bound holds) and detach
	// still drains to empty afterwards.
	sim, _, _, _, nb := world(t, Config{
		Queues:        4,
		CtxCacheFlows: 4,
		Chaos:         &ChaosConfig{Seed: 3, CtxInvalidateProb: 0.2},
	})
	flows := make([]wire.FlowID, 8)
	for i := range flows {
		flows[i] = flowTo(i)
		nb.AttachRx(flows[i], offload.NewRxEngine(&passOps{}, 1000, nil))
	}
	seq := uint32(1000)
	for round := 0; round < 20; round++ {
		for _, f := range flows {
			nb.DeliverFrame(frameFor(f, seq, 8))
		}
		flush(sim)
		seq += 12
		if nb.CacheLen() > 4 {
			t.Fatalf("round %d: CacheLen %d exceeds bound 4", round, nb.CacheLen())
		}
	}
	if nb.Stats().CtxInvalidations == 0 {
		t.Fatal("chaos never invalidated (seed/probability mismatch)")
	}
	for _, f := range flows {
		nb.DetachRx(f)
	}
	if nb.CacheLen() != 0 {
		t.Errorf("cache leaked %d contexts after invalidations + detach", nb.CacheLen())
	}
}

func TestDropRxChecksumErrorsModes(t *testing.T) {
	corrupt := func(f wire.FlowID) wire.Frame {
		frame := frameFor(f, 1000, 8)
		buf := []byte(frame)
		buf[len(buf)-1] ^= 0x01 // damage the last payload byte: TCP checksum fails
		return frame
	}

	t.Run("deliver", func(t *testing.T) {
		sim, _, b, _, nb := world(t, Config{})
		nb.DeliverFrame(corrupt(flowTo(0)))
		flush(sim)
		st := nb.Stats()
		if st.RxBadFrames != 1 {
			t.Errorf("RxBadFrames = %d, want 1", st.RxBadFrames)
		}
		if st.RxPackets != 1 {
			t.Errorf("RxPackets = %d: delivered frame must count (it was DMA'd)", st.RxPackets)
		}
		if b.Stats.ChecksumErrors != 1 {
			t.Errorf("stack ChecksumErrors = %d, want 1", b.Stats.ChecksumErrors)
		}
		if b.Stats.PacketsIn != 0 {
			t.Errorf("PacketsIn = %d: a checksum-failed packet must not demux", b.Stats.PacketsIn)
		}
	})

	t.Run("deliver-mid-stream", func(t *testing.T) {
		// A corrupt frame injected into a live connection is discarded by
		// software validation; the stream stays intact.
		sim, a, b, _, nb := world(t, Config{})
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
		var sock *tcpip.Socket
		a.Connect(wire.Addr{IP: b.IP(), Port: 80}, func(s *tcpip.Socket) {
			sock = s
			s.Write([]byte("before "))
		})
		sim.RunUntil(50 * time.Millisecond)
		nb.DeliverFrame(corrupt(wire.FlowID{
			Src: sock.Flow().Src, Dst: sock.Flow().Dst,
		}))
		sock.Write([]byte("after"))
		sim.RunUntil(time.Second)
		if string(got) != "before after" {
			t.Errorf("stream disturbed by checksum-failed frame: %q", got)
		}
		if b.Stats.ChecksumErrors != 1 {
			t.Errorf("ChecksumErrors = %d, want 1", b.Stats.ChecksumErrors)
		}
	})
}
