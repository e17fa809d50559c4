package tcpip

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/cycles"
	"repro/internal/meta"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// FuzzReassembly lets the fuzzer pick the segmentation and arrival order of
// a receive stream: ctl bytes drive segment offsets, lengths, duplication,
// and stale/overlapping re-sends. After a final in-order sweep the socket
// must deliver exactly the original byte stream — no gap, no duplicate
// byte, no reordering — and must never panic on any arrival pattern. Each
// segment's payload is overwritten after Input, so a chunk the socket
// queued without copying shows up as poisoned bytes; each packet the
// stack transmits is scrambled after Transmit, so a stack that still
// reads it acts on garbage.
func FuzzReassembly(f *testing.F) {
	f.Add(int64(1), []byte{3, 200, 40, 0, 90, 5, 255, 17})
	f.Add(int64(2), []byte{0, 0, 0, 0})
	f.Add(int64(3), []byte{255, 254, 253, 1, 2, 3})
	f.Add(int64(0x7ead), []byte{128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, seed int64, ctl []byte) {
		if len(ctl) == 0 || len(ctl) > 1<<10 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		model := cycles.DefaultModel()
		sim := netsim.New()
		st := NewStack(sim, [4]byte{10, 0, 0, 2}, &model, &cycles.Ledger{})
		// The device keeps a copy of each packet and then scrambles the one
		// it was handed: a stack that reads its packet after Transmit reads
		// garbage (NetDevice).
		var outPkts []*wire.Packet
		st.SetDevice(devFunc(func(p *wire.Packet) {
			outPkts = append(outPkts, keepPacket(p))
			*p = wire.Packet{Flow: p.Flow.Reverse(), Seq: ^p.Seq, Ack: ^p.Ack,
				Flags: ^p.Flags, Window: ^p.Window, ECN: wire.ECNCE,
				Payload: []byte{0xDB, 0xDB, 0xDB}, SACKBlocks: []wire.SACKBlock{{Start: 1, End: 0}}}
		}))

		var server *Socket
		st.Listen(80, func(s *Socket) { server = s })
		flow := wire.FlowID{Src: wire.IPv4(10, 0, 0, 1, 7000), Dst: wire.IPv4(10, 0, 0, 2, 80)}

		iss := uint32(rng.Intn(1 << 30))
		if ctl[0]%3 == 0 {
			iss = 0xFFFFFFFF - uint32(rng.Intn(4000)) // wrap region
		}
		st.Input(&wire.Packet{Flow: flow, Seq: iss, Flags: wire.FlagSYN, Window: 64}, 0)
		if len(outPkts) == 0 {
			t.Fatal("no SYN-ACK")
		}
		srvISS := outPkts[0].Seq
		st.Input(&wire.Packet{Flow: flow, Seq: iss + 1, Ack: srvISS + 1,
			Flags: wire.FlagACK, Window: 64}, 0)
		if server == nil {
			t.Fatal("no accept")
		}

		data := make([]byte, 512+rng.Intn(4096))
		rng.Read(data)
		ctlAt := func(i int) int { return int(ctl[i%len(ctl)]) }
		// Every segment arrives in the same buffer, poisoned once Input
		// returns, as the NIC recycles a received frame: whatever the
		// socket keeps past Input must be its own copy.
		frame := make([]byte, len(data))
		deliver := func(off, n int) {
			if n <= 0 || off+n > len(data) {
				return
			}
			st.Input(&wire.Packet{
				Flow: flow, Seq: iss + 1 + uint32(off), Ack: srvISS + 1,
				Flags: wire.FlagACK, Window: 64,
				Payload: frame[:copy(frame, data[off:off+n])],
			}, meta.RxFlags(ctlAt(off)%4))
			for i := range frame[:n] {
				frame[i] = 0xDB
			}
		}

		// Fuzzer-directed arrival pattern: each ctl triple picks an offset
		// anywhere in the stream (overlaps and stale data included), a
		// length, and whether to duplicate the segment.
		for i := 0; i < len(ctl); i++ {
			off := (ctlAt(3*i) << 8) | ctlAt(3*i+1)
			off %= len(data)
			n := 1 + ctlAt(3*i+2)*5
			if off+n > len(data) {
				n = len(data) - off
			}
			deliver(off, n)
			if ctlAt(3*i+1)%5 == 0 {
				deliver(off, n)
			}
		}
		// In-order sweep so the stream is completable regardless of what the
		// fuzzer delivered above.
		for off := 0; off < len(data); off += 600 {
			n := 600
			if off+n > len(data) {
				n = len(data) - off
			}
			deliver(off, n)
		}
		sim.Run(0)

		var got bytes.Buffer
		for {
			c, ok := server.ReadChunk()
			if !ok {
				break
			}
			got.Write(c.Data)
		}
		if !bytes.Equal(got.Bytes(), data) {
			t.Fatalf("reassembled %d bytes != original %d", got.Len(), len(data))
		}
	})
}

// FuzzScoreboard drives the SACK scoreboard with fuzzer-chosen sequences of
// block arrivals and cumulative-ACK advances, then checks the invariants
// documented on the type after every operation: ranges stay sorted,
// disjoint, non-empty, and above the cumulative ACK; nextHole never returns
// SACKed (i.e. already-delivered) bytes or bytes below una; and the hole
// walk always terminates having tiled [una, top) exactly — so a sender
// following it never retransmits acked data and never stalls.
func FuzzScoreboard(f *testing.F) {
	f.Add(uint32(1000), []byte{0, 10, 4, 0, 30, 4, 1, 15, 0})
	f.Add(uint32(0xFFFFFF00), []byte{0, 2, 60, 0, 100, 8, 1, 200, 0}) // wrap region
	f.Add(uint32(0), []byte{1, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, una uint32, ops []byte) {
		if len(ops) > 1<<10 {
			return
		}
		var sb scoreboard
		const window = 1 << 16 // keep offsets inside a plausible send window

		check := func() {
			t.Helper()
			prevEnd := una
			for i, r := range sb.ranges {
				if seqSub(r.End, r.Start) <= 0 {
					t.Fatalf("range %d empty or inverted: [%d,%d)", i, r.Start, r.End)
				}
				if seqSub(r.Start, prevEnd) < 0 {
					t.Fatalf("range %d overlaps predecessor or una: start=%d prevEnd=%d",
						i, r.Start, prevEnd)
				}
				prevEnd = r.End
			}
			top, ok := sb.top()
			if !ok {
				if len(sb.ranges) != 0 {
					t.Fatal("top() empty with ranges present")
				}
				return
			}
			// Walk the holes from una to top: they must make forward
			// progress, never touch a SACKed byte, and together with the
			// SACKed ranges tile [una, top) exactly.
			covered := 0
			from := una
			for steps := 0; ; steps++ {
				if steps > len(sb.ranges)+2 {
					t.Fatalf("hole walk did not terminate: from=%d top=%d", from, top)
				}
				start, end, ok := sb.nextHole(from, top)
				if !ok {
					break
				}
				if seqSub(start, from) < 0 || seqSub(end, start) <= 0 || seqSub(top, end) < 0 {
					t.Fatalf("bad hole [%d,%d) from=%d top=%d", start, end, from, top)
				}
				for _, r := range sb.ranges {
					if seqSub(end, r.Start) > 0 && seqSub(r.End, start) > 0 {
						t.Fatalf("hole [%d,%d) overlaps SACKed range [%d,%d)",
							start, end, r.Start, r.End)
					}
				}
				covered += seqSub(end, start)
				from = end
			}
			if covered+sb.sackedBytes() != seqSub(top, una) {
				t.Fatalf("holes (%d) + sacked (%d) != span [una,top) (%d)",
					covered, sb.sackedBytes(), seqSub(top, una))
			}
		}

		for i := 0; i+2 < len(ops); i += 3 {
			op, a, b := ops[i], int(ops[i+1]), int(ops[i+2])
			switch op % 2 {
			case 0: // SACK block arrival
				start := una + uint32(a*257%window)
				end := start + uint32(1+b*11%4096)
				before := sb.sackedBytes()
				grew := sb.add(start, end)
				if grew && sb.sackedBytes() <= before {
					t.Fatal("add reported new bytes but sackedBytes did not grow")
				}
				if !grew && sb.sackedBytes() != before {
					t.Fatal("add reported no new bytes but sackedBytes changed")
				}
			case 1: // cumulative ACK advance
				una += uint32(a*97 + b)
				sb.advance(una)
			}
			check()
		}
	})
}
