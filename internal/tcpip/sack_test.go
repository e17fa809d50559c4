package tcpip

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/cycles"
	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// filterDevice is a rawDevice with a transmit-side tap: filter returns true
// to drop the packet before it reaches the link. Tests use it to inject
// deterministic loss or duplication of chosen segments.
type filterDevice struct {
	stack  *Stack
	send   func(frame wire.Frame)
	filter func(pkt *wire.Packet) bool
}

func (d *filterDevice) Transmit(pkt *wire.Packet) {
	if d.filter != nil && d.filter(pkt) {
		return
	}
	d.send(pkt.Marshal())
}

func (d *filterDevice) DeliverFrame(frame wire.Frame) {
	pkt, err := wire.Parse(frame)
	if err != nil {
		panic(err)
	}
	d.stack.Input(pkt, 0)
}

// newFilterPair is newPair with a transmit filter on the A side.
func newFilterPair(t testing.TB, cfg netsim.LinkConfig,
	filterA func(*wire.Packet) bool) *pair {
	t.Helper()
	p := &pair{sim: netsim.New(), model: cycles.DefaultModel(),
		lgA: &cycles.Ledger{}, lgB: &cycles.Ledger{}}
	p.link = netsim.NewLink(p.sim, cfg)
	p.a = NewStack(p.sim, [4]byte{10, 0, 0, 1}, &p.model, p.lgA)
	p.b = NewStack(p.sim, [4]byte{10, 0, 0, 2}, &p.model, p.lgB)
	devA := &filterDevice{stack: p.a, send: p.link.SendAtoB, filter: filterA}
	devB := &rawDevice{stack: p.b, send: p.link.SendBtoA}
	p.a.SetDevice(devA)
	p.b.SetDevice(devB)
	p.link.AttachA(devA)
	p.link.AttachB(devB)
	return p
}

func TestSACKNegotiation(t *testing.T) {
	cases := []struct {
		name           string
		client, server bool
		want           bool
	}{
		{"both", true, true, true},
		{"client only", true, false, false},
		{"server only", false, true, false},
		{"neither", false, false, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := newPair(t, netsim.LinkConfig{Latency: 5 * time.Microsecond})
			if c.client {
				p.a.EnableSACK()
			}
			if c.server {
				p.b.EnableSACK()
			}
			var server *Socket
			p.b.Listen(80, func(s *Socket) { server = s })
			client := p.a.Connect(wire.Addr{IP: p.b.IP(), Port: 80}, nil)
			p.sim.Run(0)
			if !client.Established() || server == nil {
				t.Fatal("handshake failed")
			}
			if client.sackOK != c.want || server.sackOK != c.want {
				t.Errorf("sackOK client=%v server=%v, want %v",
					client.sackOK, server.sackOK, c.want)
			}
		})
	}
}

// multiHoleRun transfers data through a window with three dropped,
// non-adjacent segments and returns the sender stack plus the measured
// recovery-episode duration.
func multiHoleRun(t *testing.T, sack bool) (*Stack, time.Duration) {
	t.Helper()
	const mssIdxA, mssIdxB, mssIdxC = 30, 33, 36
	var (
		iss     uint32
		issSet  bool
		dropped = map[int]bool{}
	)
	filter := func(pkt *wire.Packet) bool {
		if pkt.Flags&wire.FlagSYN != 0 {
			iss, issSet = pkt.Seq, true
			return false
		}
		if !issSet || len(pkt.Payload) == 0 {
			return false
		}
		mss := 1460
		rel := int(int32(pkt.Seq - (iss + 1)))
		if rel < 0 || rel%mss != 0 {
			return false
		}
		idx := rel / mss
		if (idx == mssIdxA || idx == mssIdxB || idx == mssIdxC) && !dropped[idx] {
			dropped[idx] = true // first transmission only
			return true
		}
		return false
	}
	p := newFilterPair(t, netsim.LinkConfig{Gbps: 10, Latency: 200 * time.Microsecond}, filter)
	if sack {
		p.a.EnableSACK()
		p.b.EnableSACK()
	}
	hist := telemetry.NewHistogram("tcp.recovery_episode_ns")
	p.a.SetRecoveryHistogram(hist)

	data := randBytes(128<<10, 77)
	got := transfer(t, p, data, 5*time.Second)
	if !bytes.Equal(got, data) {
		t.Fatalf("stream corrupted: got %d bytes, want %d", len(got), len(data))
	}
	if len(dropped) != 3 {
		t.Fatalf("dropped %d segments, want 3", len(dropped))
	}
	if hist.Count() == 0 {
		t.Fatal("no recovery episode recorded")
	}
	return p.a, time.Duration(hist.Max())
}

// TestMultiHoleRecovery drops three non-adjacent segments from one window.
// With SACK the scoreboard repairs all holes within about one RTT wave of
// duplicate ACKs; plain NewReno heals one hole per partial-ACK round trip.
// Neither may fall back to one RTO per hole.
func TestMultiHoleRecovery(t *testing.T) {
	const rtt = 400 * time.Microsecond // 2 × 200µs propagation

	sackStack, sackDur := multiHoleRun(t, true)
	if sackStack.Stats.Timeouts != 0 {
		t.Errorf("SACK recovery hit %d RTOs, want 0", sackStack.Stats.Timeouts)
	}
	if sackStack.Stats.HolesRetransmitted < 3 {
		t.Errorf("HolesRetransmitted = %d, want >= 3", sackStack.Stats.HolesRetransmitted)
	}
	if sackStack.Stats.SACKBlocksRcvd == 0 {
		t.Error("no SACK blocks received by the sender")
	}
	if sackDur > 2*rtt+rtt/2 {
		t.Errorf("SACK multi-hole episode took %v, want <= ~2 RTTs (%v)", sackDur, 2*rtt)
	}

	renoStack, renoDur := multiHoleRun(t, false)
	if renoStack.Stats.Timeouts != 0 {
		t.Errorf("NewReno recovery hit %d RTOs, want 0 (partial-ACK healing)",
			renoStack.Stats.Timeouts)
	}
	if renoDur < 2*rtt+rtt/2 {
		t.Errorf("NewReno episode took %v, expected >= ~3 RTTs (one hole per RTT)", renoDur)
	}
	if sackDur >= renoDur {
		t.Errorf("SACK episode (%v) not faster than NewReno (%v)", sackDur, renoDur)
	}
}

// TestSpuriousRTOUndo delays the only outstanding segment's ACK past the
// RTO, then delivers an ACK carrying a DSACK for the retransmitted range:
// the stack must undo the congestion collapse, count the spurious timeout,
// and re-seed the RTO instead of keeping the doubled timer.
func TestSpuriousRTOUndo(t *testing.T) {
	model := cycles.DefaultModel()
	sim := netsim.New()
	st := NewStack(sim, [4]byte{10, 0, 0, 1}, &model, &cycles.Ledger{})
	st.EnableSACK()
	var out []*wire.Packet
	st.SetDevice(devFunc(func(p *wire.Packet) { out = append(out, keepPacket(p)) }))

	client := st.Connect(wire.Addr{IP: [4]byte{10, 0, 0, 2}, Port: 80}, nil)
	if len(out) != 1 || !out[0].SACKPermitted {
		t.Fatalf("SYN missing SACK-permitted: %+v", out)
	}
	peerFlow := client.flow.Reverse()
	st.Input(&wire.Packet{Flow: peerFlow, Seq: 9000, Ack: client.iss + 1,
		Flags: wire.FlagSYN | wire.FlagACK, Window: 64, SACKPermitted: true}, 0)
	if !client.Established() || !client.sackOK {
		t.Fatalf("SACK not negotiated: state=%s sackOK=%v", client.State(), client.sackOK)
	}

	mss := st.MSS()
	payload := randBytes(mss, 9)
	out = nil
	client.Write(payload)
	if len(out) != 1 {
		t.Fatalf("expected 1 data segment, got %d", len(out))
	}
	seg := out[0]
	preCwnd := client.cc.Cwnd()

	// Let the RTO fire: the window collapses and the segment is resent.
	out = nil
	sim.RunUntil(sim.Now() + 2*initialRTO)
	if st.Stats.Timeouts != 1 {
		t.Fatalf("Timeouts = %d, want 1", st.Stats.Timeouts)
	}
	if client.cc.Cwnd() != mss {
		t.Fatalf("cwnd after RTO = %d, want %d", client.cc.Cwnd(), mss)
	}
	if client.rto <= initialRTO {
		t.Fatalf("rto not backed off: %v", client.rto)
	}

	// The original arrived late after all: the ACK covers the data and
	// DSACKs the duplicate delivery of the RTO retransmission.
	end := seg.Seq + uint32(len(seg.Payload))
	st.Input(&wire.Packet{Flow: peerFlow, Seq: 9001, Ack: end,
		Flags: wire.FlagACK, Window: 64,
		SACKBlocks: []wire.SACKBlock{{Start: seg.Seq, End: end}}}, 0)

	if st.Stats.SpuriousRTOs != 1 || st.Stats.Undos != 1 {
		t.Errorf("SpuriousRTOs=%d Undos=%d, want 1/1",
			st.Stats.SpuriousRTOs, st.Stats.Undos)
	}
	if st.Stats.DSACKsRcvd != 1 {
		t.Errorf("DSACKsRcvd = %d, want 1", st.Stats.DSACKsRcvd)
	}
	// Undo restores the pre-collapse window; the cumulative ACK then grows
	// it by the acked bytes (slow start), so it must be at least preCwnd.
	if client.cc.Cwnd() < preCwnd {
		t.Errorf("cwnd after undo = %d, want >= %d", client.cc.Cwnd(), preCwnd)
	}
	// No RTT sample exists (Karn), so the re-seeded RTO is the initial one
	// — the exponential backoff must not stick.
	if client.rto != initialRTO {
		t.Errorf("rto after undo = %v, want re-seeded %v", client.rto, initialRTO)
	}
}

// TestDSACKReportsDuplicate duplicates one data segment in flight; the
// receiver must DSACK the duplicate and the sender must count it without
// any effect on the stream.
func TestDSACKReportsDuplicate(t *testing.T) {
	var (
		iss    uint32
		issSet bool
		dupped bool
		link   *netsim.Link
	)
	filter := func(pkt *wire.Packet) bool {
		if pkt.Flags&wire.FlagSYN != 0 {
			iss, issSet = pkt.Seq, true
			return false
		}
		if !issSet || dupped || len(pkt.Payload) == 0 {
			return false
		}
		if int(int32(pkt.Seq-(iss+1))) >= 5*1460 {
			dupped = true
			link.SendAtoB(pkt.Marshal()) // extra copy ahead of the real send
		}
		return false
	}
	p := newFilterPair(t, netsim.LinkConfig{Gbps: 10, Latency: 50 * time.Microsecond}, filter)
	link = p.link
	p.a.EnableSACK()
	p.b.EnableSACK()

	data := randBytes(64<<10, 5)
	got := transfer(t, p, data, 5*time.Second)
	if !bytes.Equal(got, data) {
		t.Fatalf("stream corrupted")
	}
	if !dupped {
		t.Fatal("filter never duplicated a segment")
	}
	if p.b.Stats.DSACKsSent == 0 {
		t.Error("receiver sent no DSACK for the duplicate")
	}
	if p.a.Stats.DSACKsRcvd == 0 {
		t.Error("sender counted no DSACK")
	}
	if p.a.Stats.SpuriousRTOs != 0 {
		t.Errorf("duplicate without an RTO counted as spurious RTO: %d",
			p.a.Stats.SpuriousRTOs)
	}
}

// TestSACKTransferUnderLoss runs a lossy bulk transfer with SACK on both
// ends under each congestion controller and checks the stream stays exact
// while the scoreboard does hole-directed repair.
func TestSACKTransferUnderLoss(t *testing.T) {
	for _, cc := range []string{"newreno", "cubic"} {
		t.Run(cc, func(t *testing.T) {
			p := newPair(t, netsim.LinkConfig{
				Gbps:    10,
				Latency: 20 * time.Microsecond,
				AtoB:    netsim.FaultConfig{LossProb: 0.02, ReorderProb: 0.01, Seed: 11},
				BtoA:    netsim.FaultConfig{ReorderProb: 0.005, Seed: 12},
			})
			p.a.EnableSACK()
			p.b.EnableSACK()
			if err := p.a.SetCongestionControl(cc); err != nil {
				t.Fatal(err)
			}
			if err := p.b.SetCongestionControl(cc); err != nil {
				t.Fatal(err)
			}
			data := randBytes(1<<20, 21)
			got := transfer(t, p, data, 20*time.Second)
			if !bytes.Equal(got, data) {
				t.Fatalf("stream corrupted: got %d bytes, want %d", len(got), len(data))
			}
			if p.a.Stats.SACKBlocksRcvd == 0 || p.b.Stats.SACKBlocksSent == 0 {
				t.Errorf("no SACK blocks flowed: rcvd=%d sent=%d",
					p.a.Stats.SACKBlocksRcvd, p.b.Stats.SACKBlocksSent)
			}
			if p.a.Stats.HolesRetransmitted == 0 {
				t.Error("no hole-directed retransmissions under 2% loss")
			}
		})
	}
}

func TestSetCongestionControlValidates(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{})
	if err := p.a.SetCongestionControl("cubic"); err != nil {
		t.Fatalf("cubic rejected: %v", err)
	}
	if got := p.a.CongestionControlName(); got != "cubic" {
		t.Errorf("CongestionControlName = %q", got)
	}
	if err := p.a.SetCongestionControl("vegas"); err == nil {
		t.Error("unknown algorithm accepted")
	}
	// The rejected name leaves the selection as it was, and a socket
	// opened afterwards runs it.
	if got := p.a.CongestionControlName(); got != "cubic" {
		t.Errorf("after a rejected name, CongestionControlName = %q, want cubic", got)
	}
	s := p.a.Connect(wire.Addr{IP: p.b.IP(), Port: 80}, nil)
	if got := s.cc.Name(); got != "cubic" {
		t.Errorf("a new socket runs %q, want cubic", got)
	}
	if got := p.b.CongestionControlName(); got != "newreno" {
		t.Errorf("default CongestionControlName = %q, want newreno", got)
	}
}

// TestSACKAckNoAlloc: a duplicate ACK carrying SACK blocks costs no
// allocation. The option is built in the stack's arrays, like the packet
// that carries it, and the ranges it is picked from are merged into a
// scratch the stack reuses; the most recent range still leads and the
// option still stops at wire.MaxSACKBlocks.
func TestSACKAckNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting unreliable under -race")
	}
	model := cycles.DefaultModel()
	st := NewStack(netsim.New(), [4]byte{10, 0, 0, 1}, &model, &cycles.Ledger{})
	st.EnableSACK()
	var blocks int
	var lead wire.SACKBlock
	st.SetDevice(devFunc(func(p *wire.Packet) {
		if blocks = len(p.SACKBlocks); blocks > 0 {
			lead = p.SACKBlocks[0]
		}
	}))
	client := st.Connect(wire.Addr{IP: [4]byte{10, 0, 0, 2}, Port: 80}, nil)
	peerFlow := client.flow.Reverse()
	st.Input(&wire.Packet{Flow: peerFlow, Seq: 9000, Ack: client.iss + 1,
		Flags: wire.FlagSYN | wire.FlagACK, Window: 64, SACKPermitted: true}, 0)
	if !client.sackOK {
		t.Fatal("SACK not negotiated")
	}
	// Six disjoint out-of-order ranges, more than one option holds; the
	// third arrives last.
	data := make([]byte, 100)
	for _, k := range []uint32{0, 1, 3, 4, 5, 2} {
		st.Input(&wire.Packet{Flow: peerFlow, Seq: 9001 + 100 + 200*k, Ack: client.iss + 1,
			Flags: wire.FlagACK, Window: 64, Payload: data}, 0)
	}
	if allocs := testing.AllocsPerRun(100, client.sendAck); allocs != 0 {
		t.Errorf("%v allocations per SACK-bearing ACK, want 0", allocs)
	}
	want := wire.SACKBlock{Start: 9001 + 100 + 400, End: 9001 + 200 + 400}
	if blocks != wire.MaxSACKBlocks || lead != want {
		t.Errorf("ACK carries %d blocks led by %+v, want %d led by %+v",
			blocks, lead, wire.MaxSACKBlocks, want)
	}
}
