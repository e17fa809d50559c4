package nic

import (
	"slices"
	"testing"

	"repro/internal/cycles"
	"repro/internal/netsim"
	"repro/internal/tcpip"
	"repro/internal/wire"
)

// devFunc adapts a function to tcpip.NetDevice, so a test can sit between
// the stack and the NIC.
type devFunc func(*wire.Packet)

func (f devFunc) Transmit(pkt *wire.Packet) { f(pkt) }

// bareNIC builds one NIC over a stack with no link: frames go in through
// DeliverFrame and come out through send.
func bareNIC(send func(wire.Frame), cfg Config) (*netsim.Simulator, *tcpip.Stack, *NIC) {
	sim := netsim.New()
	model := cycles.DefaultModel()
	lg := &cycles.Ledger{}
	stack := tcpip.NewStack(sim, [4]byte{10, 0, 0, 2}, &model, lg)
	cfg.Model, cfg.Ledger = &model, lg
	return sim, stack, New(stack, send, cfg)
}

// TestMidDrainPostsLandInNextBatch drives the double-buffer swap of rxPoll
// and txDoorbell: a DeliverFrame issued from inside stack.Input and a
// Transmit issued from inside the doorbell's send must each be completed
// exactly once, after everything posted before them, with no frame leaked.
// The stack answers every delivered SYN with a SYN-ACK through its device,
// so a wrapping device runs inside stack.Input.
func TestMidDrainPostsLandInNextBatch(t *testing.T) {
	for _, tc := range []struct {
		name          string
		queues, burst int
	}{
		// One queue, so completion order is arrival order even though the
		// burst overruns the poll budget: the leftovers must stay ahead
		// of the frames delivered mid-drain.
		{"one-queue-over-budget", 1, rxPollBudget + 2},
		{"four-queues", 4, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const midRx, midTx = 3, 3
			burst := tc.burst
			pool := wire.NewFramePool()
			var n *NIC
			// Flows are identified by the remote port, on both paths.
			var arrived, delivered, posted, sent []uint16
			transmit := func(pkt *wire.Packet) {
				posted = append(posted, pkt.Flow.Dst.Port)
				n.Transmit(pkt)
			}
			deliverSYN := func(i int) {
				pkt := &wire.Packet{Flow: flowTo(i), Seq: 1000, Flags: wire.FlagSYN}
				frame := pool.Get(pkt.WireLen())
				pkt.MarshalHeaders(frame)
				arrived = append(arrived, pkt.Flow.Src.Port)
				n.DeliverFrame(frame)
			}
			txLeft := midTx
			send := func(frame wire.Frame) {
				pkt, err := wire.Parse(frame)
				if err != nil {
					t.Fatalf("NIC emitted an unparseable frame: %v", err)
				}
				sent = append(sent, pkt.Flow.Dst.Port)
				pool.Put(frame)
				if txLeft > 0 {
					txLeft--
					transmit(&wire.Packet{Flow: flowTo(100 + txLeft).Reverse(), Flags: wire.FlagACK})
				}
			}
			sim, stack, nic := bareNIC(send, Config{Queues: tc.queues, Pool: pool})
			n = nic
			stack.Listen(80, func(*tcpip.Socket) {})
			nextRx := burst
			stack.SetDevice(devFunc(func(pkt *wire.Packet) {
				delivered = append(delivered, pkt.Flow.Dst.Port)
				if nextRx < burst+midRx {
					deliverSYN(nextRx)
					nextRx++
				}
				transmit(pkt)
			}))

			for i := 0; i < burst; i++ {
				deliverSYN(i)
			}
			// Drain the same-timestamp poll/doorbell cascade only: the
			// half-open sockets' SYN-ACK retransmit timers stay pending.
			flush(sim)

			if len(arrived) != burst+midRx || !slices.Equal(delivered, arrived) {
				t.Errorf("delivered %v, want arrival order %v", delivered, arrived)
			}
			if len(posted) != burst+midRx+midTx || !slices.Equal(sent, posted) {
				t.Errorf("sent %v, want post order %v", sent, posted)
			}
			if st := n.Stats(); st.RxPackets != uint64(burst+midRx) || st.TxPackets != uint64(burst+midRx+midTx) {
				t.Errorf("RxPackets = %d, TxPackets = %d", st.RxPackets, st.TxPackets)
			}
			if pool.InUse() != 0 {
				t.Errorf("frame pool leak: %d frames out after the cascade drained", pool.InUse())
			}
		})
	}
}

// TestPollDoorbellNoAlloc pins the steady-state cost of one receive poll
// plus one transmit doorbell at Queues: 4 to nothing: every received frame
// parses into the NIC's one packet, and the two events are re-armed
// timers, so scheduling them is free. Anything the handlers add per frame
// or per event — a parsed packet, a closure, a scratch slice, a fan-out —
// shows up as allocations whatever the batch size.
func TestPollDoorbellNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting unreliable under -race")
	}
	pool := wire.NewFramePool()
	sim, _, n := bareNIC(pool.Put, Config{Queues: 4, Pool: pool})
	const flows = 16
	var rx [flows]wire.Frame
	var tx [flows]*wire.Packet
	for i := range rx {
		rx[i] = frameFor(flowTo(i), 1000, 8)
		tx[i] = &wire.Packet{Flow: flowTo(i).Reverse(), Seq: 1, Flags: wire.FlagACK, Payload: make([]byte, 64)}
	}
	batch := func(frames int) func() {
		return func() {
			for i := 0; i < frames; i++ {
				n.DeliverFrame(pool.Clone(rx[i%flows]))
				n.Transmit(tx[i%flows])
			}
			flush(sim)
		}
	}
	for _, frames := range []int{8, 48} {
		if got := testing.AllocsPerRun(100, batch(frames)); got != 0 {
			t.Errorf("%d frames: %v allocs per poll+doorbell, want 0", frames, got)
		}
	}
	if st := n.Stats(); st.RxPackets == 0 || st.TxPackets == 0 || st.RxPackets != st.RxPolledFrames {
		t.Errorf("batches did not run the hot path: %+v", st)
	}
	if pool.InUse() != 0 {
		t.Errorf("frame pool leak: %d frames out", pool.InUse())
	}
}

// TestTransmitKeepsNothing holds the NIC to the tcpip.NetDevice contract:
// it keeps neither a posted packet nor anything the packet points to once
// Transmit returns. Each packet is scrambled right after its post — its
// fields, its payload bytes and its SACK blocks — and the doorbell runs
// only after the last post, yet every frame on the wire must be Marshal of
// the packet as it was posted.
func TestTransmitKeepsNothing(t *testing.T) {
	pool := wire.NewFramePool()
	var sent []wire.Frame
	sim, _, n := bareNIC(func(f wire.Frame) { sent = append(sent, f.Clone()); pool.Put(f) },
		Config{Queues: 2, Pool: pool})
	body := func(size int) []byte {
		b := make([]byte, size)
		for i := range b {
			b[i] = byte(i*7 + 1)
		}
		return b
	}
	pkts := []wire.Packet{
		{Flow: flowTo(1).Reverse(), Seq: 7, Ack: 9, Flags: wire.FlagACK | wire.FlagPSH, Window: 64,
			ECN: wire.ECNECT0, Payload: body(1448)},
		{Flow: flowTo(2).Reverse(), Seq: 1, Ack: 5000, Flags: wire.FlagACK, Window: 12,
			SACKBlocks: []wire.SACKBlock{{Start: 6000, End: 7448}, {Start: 9000, End: 9100}}},
		{Flow: flowTo(3).Reverse(), Seq: 100, Flags: wire.FlagSYN, Window: 64, SACKPermitted: true},
		{Flow: flowTo(1).Reverse(), Seq: 1455, Ack: 9, Flags: wire.FlagACK | wire.FlagFIN, Window: 64,
			Payload: body(333)},
	}
	var want []wire.Frame
	for i := range pkts {
		pkt := &pkts[i]
		want = append(want, pkt.Marshal())
		n.Transmit(pkt)
		for j := range pkt.Payload {
			pkt.Payload[j] = 0xDB
		}
		for j := range pkt.SACKBlocks {
			pkt.SACKBlocks[j] = wire.SACKBlock{Start: 0xDBDBDBDB, End: 1}
		}
		*pkt = wire.Packet{Flow: flowTo(9), Seq: ^pkt.Seq, Ack: ^pkt.Ack, Flags: wire.FlagRST,
			Window: 1, ECN: wire.ECNCE, Payload: pkt.Payload, SACKBlocks: pkt.SACKBlocks, TxCycles: -1}
	}
	if len(sent) != 0 {
		t.Fatalf("%d frames sent before the doorbell", len(sent))
	}
	flush(sim)
	if len(sent) != len(want) {
		t.Fatalf("%d frames on the wire, want %d", len(sent), len(want))
	}
	for i := range want {
		if !slices.Equal(sent[i], want[i]) {
			t.Errorf("frame %d differs from Marshal of the packet as posted", i)
		}
	}
	if pool.InUse() != 0 {
		t.Errorf("frame pool leak: %d frames out", pool.InUse())
	}
}
