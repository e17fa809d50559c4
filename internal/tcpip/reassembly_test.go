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

// TestReassemblyProperty drives a socket's receive path directly with
// randomized segment arrival orders (duplicates, overlaps, gaps filled out
// of order, the FIN among them) and checks the delivered byte stream
// against the original. Every segment arrives in one frame buffer that is
// overwritten once Input returns, and every byte buffer handed back to the
// stack's spares is poisoned (poisonSpares). On odd seeds the reader reads
// inside OnReadable and holds every chunk it took until OnReadable is about
// to return, when it checks them: the socket may hand its arena back only
// after that. On even seeds nothing reads until the end, so the socket
// keeps every byte.
func TestReassemblyProperty(t *testing.T) {
	setPoisonSpares(t)
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		model := cycles.DefaultModel()
		sim := netsim.New()
		st := NewStack(sim, [4]byte{10, 0, 0, 2}, &model, &cycles.Ledger{})
		var outPkts []*wire.Packet
		st.SetDevice(devFunc(func(p *wire.Packet) { outPkts = append(outPkts, keepPacket(p)) }))

		var (
			server *Socket
			got    bytes.Buffer
			held   []Chunk
			data   []byte // the stream
			iss    uint32
		)
		st.Listen(80, func(s *Socket) {
			server = s
			if seed%2 == 0 {
				return
			}
			s.OnReadable = func(s *Socket) {
				held = held[:0]
				for c, ok := s.ReadChunk(); ok; c, ok = s.ReadChunk() {
					held = append(held, c)
				}
				for _, c := range held {
					off := int(c.Seq - (iss + 1))
					if !bytes.Equal(c.Data, data[off:off+len(c.Data)]) {
						t.Fatalf("seed %d: a chunk at stream offset %d changed before OnReadable returned", seed, off)
					}
					got.Write(c.Data)
				}
			}
		})
		flow := wire.FlowID{Src: wire.IPv4(10, 0, 0, 1, 7000), Dst: wire.IPv4(10, 0, 0, 2, 80)}

		iss = uint32(rng.Intn(1 << 30))
		if rng.Intn(3) == 0 {
			iss = 0xFFFFFFFF - uint32(rng.Intn(4000)) // wrap region
		}
		st.Input(&wire.Packet{Flow: flow, Seq: iss, Flags: wire.FlagSYN, Window: 64}, 0)
		srvISS := outPkts[0].Seq
		st.Input(&wire.Packet{Flow: flow, Seq: iss + 1, Ack: srvISS + 1,
			Flags: wire.FlagACK, Window: 64}, 0)
		if server == nil {
			t.Fatal("no accept")
		}

		// Build the stream and a set of segments covering it, possibly
		// overlapping.
		data = make([]byte, 2000+rng.Intn(60000)) // up to twice rcvArenaMin
		rng.Read(data)
		type seg struct {
			off, n int
		}
		var segs []seg
		for off := 0; off < len(data); {
			n := 1 + rng.Intn(700)
			if off+n > len(data) {
				n = len(data) - off
			}
			segs = append(segs, seg{off, n})
			// Occasionally add an overlapping copy.
			if rng.Intn(4) == 0 {
				back := rng.Intn(off + 1)
				m := 1 + rng.Intn(off-back+n)
				segs = append(segs, seg{back, m})
			}
			off += n
		}
		// Shuffle arrival order but redeliver everything at least once, so
		// the stream is completable.
		order := rng.Perm(len(segs))
		frame := make([]byte, len(data)) // as long as the longest segment
		deliver := func(sg seg) {
			payload := frame[:copy(frame, data[sg.off:sg.off+sg.n])]
			flags := wire.FlagACK
			if sg.off+len(payload) == len(data) {
				flags |= wire.FlagFIN
			}
			st.Input(&wire.Packet{
				Flow: flow, Seq: iss + 1 + uint32(sg.off), Ack: srvISS + 1,
				Flags: flags, Window: 64,
				Payload: payload,
			}, meta.RxFlags(rng.Intn(4)))
			for i := range payload {
				payload[i] = 0xDB
			}
		}
		for _, i := range order {
			deliver(segs[i])
			if rng.Intn(3) == 0 { // duplicate deliveries
				deliver(segs[i])
			}
		}
		// In-order sweep to guarantee completion.
		for _, sg := range segs {
			deliver(sg)
		}
		sim.Run(0)

		for {
			c, ok := server.ReadChunk()
			if !ok {
				break
			}
			got.Write(c.Data)
		}
		if !bytes.Equal(got.Bytes(), data) || !server.EOF() {
			t.Fatalf("seed %d: reassembled %d bytes != original %d",
				seed, got.Len(), len(data))
		}
	}
}
