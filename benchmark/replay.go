package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/crc32c"
	"repro/internal/cycles"
	"repro/internal/experiments"
	"repro/internal/gcm"
	"repro/internal/ktls"
	"repro/internal/meta"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/nvmetcp"
	"repro/internal/offload"
	"repro/internal/tcpip"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Replays: each layer's public functions called in isolation, sized to the
// operations the workloads perform (1448-byte segments, 16 KiB records,
// 256 KiB PDUs), so a layer's own cost per operation is known apart from
// the world it runs in. The traced run multiplies these by the workload's
// counted operations per packet to get <layer>.est_ns_per_pkt.

// replayBatches is how many equally sized timed batches one replay runs;
// the median batch is reported, which rejects a preempted batch without
// favouring the luckiest one.
const replayBatches = 7

// measure times fn(n) — n back-to-back operations — after sizing n so one
// batch takes about 2 ms, and returns host nanoseconds and heap
// allocations per operation.
func measure(fn func(n int)) (ns, allocs float64) {
	n := 1
	for {
		t := time.Now()
		fn(n)
		d := time.Since(t)
		if d >= 2*time.Millisecond || n >= 1<<26 {
			break
		}
		if d < 50*time.Microsecond {
			n *= 16
		} else {
			n = int(float64(n)*float64(2*time.Millisecond)/float64(d)) + 1
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	times := make([]float64, replayBatches)
	for i := range times {
		t := time.Now()
		fn(n)
		times[i] = float64(time.Since(t)) / float64(n)
	}
	runtime.ReadMemStats(&m1)
	return summarize(times, "ns").Median, float64(m1.Mallocs-m0.Mallocs) / float64(replayBatches*n)
}

const mss = 1448

// replays holds every replayed cost by metric name, plus the two
// unreported ACK-sized wire costs the per-packet estimates interpolate
// with.
type replays map[string]float64

// runReplays measures every layer replay. It takes a few seconds.
func runReplays() (replays, error) {
	r := replays{}
	replayNetsim(r)
	replayWire(r)
	replayCrypto(r)
	replayTelemetry(r)
	replayNvme(r)
	if err := replayEngines(r); err != nil {
		return nil, err
	}
	if err := replayStacks(r); err != nil {
		return nil, err
	}
	return r, nil
}

func replayNetsim(r replays) {
	// Event core: schedule + run with an empty handler at a steady queue
	// depth of 64, roughly what the iperf worlds hold.
	sim := netsim.New()
	nop := func() {}
	for i := 0; i < 64; i++ {
		sim.After(time.Duration(i+1)*time.Microsecond, nop)
	}
	r["netsim.event_ns"], r["netsim.event_allocs"] = measure(func(n int) {
		for i := 0; i < n; i++ {
			sim.After(64*time.Microsecond, nop)
			sim.Step()
		}
	})

	// Link: serialize, schedule, deliver one full-size frame to an
	// endpoint that does nothing.
	sim = netsim.New()
	link := netsim.NewLink(sim, pairLink)
	null := netsim.EndpointFunc(func(wire.Frame) {})
	link.AttachA(null)
	link.AttachB(null)
	frame := make(wire.Frame, wire.FrameOverhead+mss)
	r["netsim.link_send_ns"], _ = measure(func(n int) {
		for i := 0; i < n; i++ {
			link.SendAtoB(frame)
			sim.Step()
		}
	})

	// The barrier itself: four empty lane jobs, inline and fanned out.
	for _, workers := range []int{1, 2} {
		sim := netsim.New()
		sim.SetShardWorkers(workers)
		r[fmt.Sprintf("netsim.shardrun_ns_w%d", workers)], _ = measure(func(n int) {
			for i := 0; i < n; i++ {
				sim.ShardRun(4, func(int) {})
			}
		})
	}
}

func replayWire(r replays) {
	flow := wire.FlowID{Src: wire.IPv4(10, 0, 0, 1, 33000), Dst: wire.IPv4(10, 0, 0, 2, iperfPort)}
	body := payload(1, mss)
	for _, sz := range []int{0, mss} {
		pkt := &wire.Packet{Flow: flow, Seq: 1, Ack: 1, Flags: wire.FlagACK, Window: 512, Payload: body[:sz]}
		frame := pkt.Marshal()
		parse, parseAllocs := measure(func(n int) {
			for i := 0; i < n; i++ {
				if _, err := wire.Parse(frame); err != nil {
					panic(err)
				}
			}
		})
		marshal, _ := measure(func(n int) {
			for i := 0; i < n; i++ {
				pkt.MarshalHeaders(frame)
			}
		})
		if sz == 0 {
			r["wire.parse_ns.ack"], r["wire.marshal_headers_ns.ack"] = parse, marshal
			continue
		}
		r["wire.parse_ns"], r["wire.parse_allocs"] = parse, parseAllocs
		r["wire.marshal_headers_ns"] = marshal
		r["wire.peekflow_ns"], _ = measure(func(n int) {
			for i := 0; i < n; i++ {
				wire.PeekFlow(frame)
			}
		})
	}
	pool := wire.NewFramePool()
	r["wire.pool_getput_ns"], _ = measure(func(n int) {
		for i := 0; i < n; i++ {
			pool.Put(pool.Get(wire.FrameOverhead + mss))
		}
	})
}

func replayCrypto(r replays) {
	cfg, _ := experiments.TLSKeys(tlsRecord)
	c, err := gcm.NewCached(cfg.Key)
	must(err)
	aead, err := gcm.AEADCached(cfg.Key)
	must(err)
	rec := payload(2, tlsRecord)
	hdr := make([]byte, ktls.HeaderLen)
	ktls.PutHeader(hdr, tlsRecord)
	var idx uint64

	// One 16 KiB record through the incremental stream, advanced in
	// chunks the size the NIC engines see, then tagged.
	for _, v := range []struct {
		name  string
		chunk int
	}{{"64", 64}, {"1448", mss}, {"16k", tlsRecord}} {
		chunk := v.chunk
		ns, allocs := measure(func(n int) {
			for i := 0; i < n; i++ {
				nonce := ktls.RecordNonce(cfg.TxIV, idx)
				idx++
				s := c.NewStream(gcm.Seal, nonce[:], hdr)
				for off := 0; off < len(rec); off += chunk {
					end := min(off+chunk, len(rec))
					s.Update(rec[off:end], rec[off:end])
				}
				s.Tag()
			}
		})
		r["gcm.stream_ns_per_byte_"+v.name] = ns / tlsRecord
		if chunk == mss {
			r["gcm.stream_allocs_per_record"] = allocs
		}
	}
	out := make([]byte, 0, tlsRecord+gcm.TagSize)
	seal, _ := measure(func(n int) {
		for i := 0; i < n; i++ {
			nonce := ktls.RecordNonce(cfg.TxIV, idx)
			idx++
			aead.Seal(out, nonce[:], rec, hdr)
		}
	})
	r["gcm.seal_ns_per_byte_16k"] = seal / tlsRecord

	for _, sz := range []int{64, mss} {
		var crc uint32
		ns, _ := measure(func(n int) {
			for i := 0; i < n; i++ {
				crc = crc32c.Update(crc, rec[:sz])
			}
		})
		r[fmt.Sprintf("crc32c.ns_per_byte_%d", sz)] = ns / float64(sz)
	}
}

func replayTelemetry(r replays) {
	// A registry as populated as a telemetry-enabled pair world's.
	sys := telemetry.NewSystem(0)
	experiments.UseTelemetry(sys)
	w := experiments.NewPairWorld(pairLink, nic.Config{Queues: 4})
	experiments.UseTelemetry(nil)
	var snap telemetry.Snapshot
	r["telemetry.snapshot_ns"], _ = measure(func(n int) {
		for i := 0; i < n; i++ {
			sys.Reg.SnapshotInto(&snap)
		}
	})
	h := telemetry.NewHistogram("replay_ns")
	r["telemetry.hist_record_ns"], _ = measure(func(n int) {
		for i := 0; i < n; i++ {
			h.Record(int64(i))
		}
	})
	r["telemetry.instant_ns"], _ = measure(func(n int) {
		for i := 0; i < n; i++ {
			sys.Trace.Instant1("replay", "replay.instant", "replay", "i", int64(i))
		}
	})
	r["nic.stats_ns"], _ = measure(func(n int) {
		for i := 0; i < n; i++ {
			w.Srv.NIC.Stats()
		}
	})
}

func replayNvme(r replays) {
	data := payload(3, fioReqSize)
	hdr := &nvmetcp.Header{Type: nvmetcp.TypeResp, CID: 1, Op: nvmetcp.StatusOK, DataLen: len(data)}
	var pdu []byte
	// Dummy digest, as the target builds responses under its transmit
	// offload: framing and the payload copy, no CRC.
	r["nvmetcp.build_pdu_ns"], _ = measure(func(n int) {
		for i := 0; i < n; i++ {
			pdu = nvmetcp.Build(hdr, data, true)
		}
	})
	r["nvmetcp.parse_header_ns"], _ = measure(func(n int) {
		for i := 0; i < n; i++ {
			if _, ok := nvmetcp.ParseHeader(pdu[:nvmetcp.HeaderLen]); !ok {
				panic("nvmetcp: replay header rejected")
			}
		}
	})
}

// nullRxOps frames TLS records and does nothing else: the receive engine's
// own FSM and message walking, with the L5P work removed.
type nullRxOps struct{}

func (nullRxOps) HeaderLen() int { return ktls.HeaderLen }
func (nullRxOps) ParseHeader(h []byte) (offload.MsgLayout, bool) {
	return ktls.ParseHeader(h)
}
func (nullRxOps) BeginMessage(offload.MsgLayout, []byte, uint64)       {}
func (nullRxOps) ResumeMessage(offload.MsgLayout, []byte, uint64, int) {}
func (nullRxOps) Body(uint32, []byte, int)                             {}
func (nullRxOps) Trailer(uint32, []byte, int)                          {}
func (nullRxOps) EndMessage() bool                                     { return true }
func (nullRxOps) AbortMessage()                                        {}
func (nullRxOps) NoteDiscontinuity()                                   {}
func (nullRxOps) PacketVerdict(bool, bool) meta.RxFlags                { return 0 }

// segments cuts buf into MSS-sized packet payloads (the last one short).
func segments(buf []byte) [][]byte {
	var out [][]byte
	for off := 0; off < len(buf); off += mss {
		out = append(out, buf[off:min(off+mss, len(buf))])
	}
	return out
}

// replayEngines runs the offload engines over pre-framed streams cut into
// MSS-sized packets: 16 KiB TLS records with no-op ops, with the real ktls
// crypto ops (transmit encrypting what receive then decrypts and
// authenticates), one 256 KiB NVMe-TCP response PDU with CRC and
// placement, and a stream entered mid-message so the engine only searches.
func replayEngines(r replays) error {
	const records = 16
	recLen := ktls.HeaderLen + tlsRecord + ktls.TagLen
	stream := make([]byte, records*recLen)
	plain := payload(4, tlsRecord)
	for i := 0; i < records; i++ {
		rec := stream[i*recLen:]
		ktls.PutHeader(rec, tlsRecord)
		copy(rec[ktls.HeaderLen:], plain)
	}
	pkts := segments(stream)
	// pass feeds the engine n packets, cycling through the stream; the
	// cursor and seq carry over between calls, as one long flow would.
	pass := func(seq *uint32, process func(seq uint32, p []byte)) func(n int) {
		next := 0
		return func(n int) {
			for i := 0; i < n; i++ {
				p := pkts[next]
				process(*seq, p)
				*seq += uint32(len(p))
				next = (next + 1) % len(pkts)
			}
		}
	}

	var seq uint32 = 1
	null := offload.NewRxEngine(nullRxOps{}, seq, nil)
	r["offload.rx_process_ns_null"], _ = measure(pass(&seq, func(s uint32, p []byte) { null.Process(s, p, false) }))
	if null.Stats.PktsUnoffloaded != 0 {
		return fmt.Errorf("replay: null engine left the fast path: %+v", null.Stats)
	}

	// Real crypto: each pass encrypts the stream in place on the transmit
	// engine and then decrypts and authenticates it on the receive engine,
	// record indices advancing in step, each side on its own clock.
	cfg, _ := experiments.TLSKeys(tlsRecord)
	model := cycles.DefaultModel()
	hw, err := ktls.NewHW(cfg.Key, cfg.TxIV, &model, &cycles.Ledger{})
	if err != nil {
		return err
	}
	txE := offload.NewTxEngine(ktls.NewTxOps(hw), nil, 1)
	rxE := offload.NewRxEngine(ktls.NewRxOps(hw, nil), 1, nil)
	var txNs, rxNs []float64
	seq = 1
	for i := 0; i < 2*replayBatches; i++ {
		s0 := seq
		t0 := time.Now()
		for _, p := range pkts {
			txE.Process(seq, p)
			seq += uint32(len(p))
		}
		t1 := time.Now()
		seq = s0
		for _, p := range pkts {
			rxE.Process(seq, p, false)
			seq += uint32(len(p))
		}
		t2 := time.Now()
		txNs = append(txNs, float64(t1.Sub(t0))/float64(len(pkts)))
		rxNs = append(rxNs, float64(t2.Sub(t1))/float64(len(pkts)))
	}
	if rxE.Stats.MsgsFailed != 0 || rxE.Stats.MsgsCompleted != 2*replayBatches*records {
		return fmt.Errorf("replay: ktls receive engine rejected its own transmit: %+v", rxE.Stats)
	}
	r["offload.tx_process_ns_ktls"] = summarize(txNs, "ns").Median
	r["offload.rx_process_ns_ktls"] = summarize(rxNs, "ns").Median

	// NVMe-TCP: one read-response PDU, digest computed, buffer registered.
	data := payload(5, fioReqSize)
	pdu := nvmetcp.Build(&nvmetcp.Header{Type: nvmetcp.TypeResp, CID: 7, Op: nvmetcp.StatusOK,
		DataLen: len(data)}, data, false)
	rr := nvmetcp.NewRRTable()
	rr.Add(7, make([]byte, fioReqSize))
	nv := offload.NewRxEngine(nvmetcp.NewRxOps(&model, &cycles.Ledger{}, rr), 1, nil)
	pkts = segments(pdu)
	seq = 1
	r["offload.rx_process_ns_nvme"], _ = measure(pass(&seq, func(s uint32, p []byte) { nv.Process(s, p, false) }))
	if nv.Stats.MsgsFailed != 0 || nv.Stats.PktsUnoffloaded != 0 {
		return fmt.Errorf("replay: nvme engine rejected a valid PDU: %+v", nv.Stats)
	}

	// Searching: the engine's first packet arrives far past its context,
	// and what follows holds no TLS header — ciphertext-like bytes from a
	// fixed generator, checked below to contain no false candidate.
	noise := make([]byte, 256<<10)
	rand.New(rand.NewSource(6)).Read(noise)
	pkts = segments(noise)
	seq = 1 << 20
	search := offload.NewRxEngine(nullRxOps{}, 1, nil)
	perPkt, _ := measure(pass(&seq, func(s uint32, p []byte) { search.Process(s, p, false) }))
	if search.State() != "searching" {
		return fmt.Errorf("replay: search stream produced a header candidate (state %s)", search.State())
	}
	r["offload.rx_search_ns_per_byte"] = perPkt * float64(len(pkts)) / float64(len(noise))
	return nil
}

// queuedPkt is one packet in flight between the two directly joined
// stacks of the tcpip replay.
type queuedPkt struct {
	to  *tcpip.Stack
	pkt wire.Packet
}

// stackPair is two tcpip stacks joined by direct devices: Transmit copies
// the packet (the device's DMA) onto a shared queue and deliver hands each
// one to the peer's Input outside the sender's call stack — no NIC, no
// link, no wire codec, so what remains is tcpip's own work.
type stackPair struct {
	sim   *netsim.Simulator
	model cycles.Model
	a, b  *tcpip.Stack
	q     []queuedPkt // FIFO of packets in flight, from head
	head  int
	free  [][]byte
	data  uint64 // data segments transmitted
}

type directDev struct {
	p  *stackPair
	to *tcpip.Stack
}

func (d directDev) Transmit(pkt *wire.Packet) {
	p := d.p
	var buf []byte
	if n := len(p.free); n > 0 {
		buf, p.free = p.free[n-1], p.free[:n-1]
	} else {
		buf = make([]byte, 0, mss)
	}
	cp := *pkt
	cp.Payload = append(buf[:0], pkt.Payload...)
	if len(pkt.Payload) > 0 {
		p.data++
	}
	p.q = append(p.q, queuedPkt{d.to, cp})
}

func newStackPair() *stackPair {
	p := &stackPair{sim: netsim.New(), model: cycles.DefaultModel()}
	p.a = tcpip.NewStack(p.sim, [4]byte{10, 0, 0, 1}, &p.model, &cycles.Ledger{})
	p.b = tcpip.NewStack(p.sim, [4]byte{10, 0, 0, 2}, &p.model, &cycles.Ledger{})
	p.a.SetDevice(directDev{p, p.b})
	p.b.SetDevice(directDev{p, p.a})
	return p
}

// deliver hands the oldest in-flight packet to its destination stack and
// lets one segment-time of virtual time pass, so timers — delayed ACKs,
// cancelled RTOs — are reaped the way a running world reaps them.
func (p *stackPair) deliver() {
	x := &p.q[p.head]
	p.head++
	to, pkt := x.to, x.pkt // Input may grow the queue under x
	to.Input(&pkt, 0)
	p.free = append(p.free, pkt.Payload)
	if p.head == len(p.q) {
		p.q, p.head = p.q[:0], 0
	}
	p.sim.RunFor(100 * time.Nanosecond)
}

func (p *stackPair) inFlight() bool { return p.head < len(p.q) }

// settle delivers until nothing is in flight (finite exchanges only).
func (p *stackPair) settle() {
	for p.inFlight() {
		p.deliver()
	}
}

// advance delivers one packet, or when nothing is in flight (window- or
// timer-limited) runs the next simulator event.
func (p *stackPair) advance() {
	if p.inFlight() {
		p.deliver()
	} else if !p.sim.Step() {
		panic("replay: directly joined stacks stalled")
	}
}

// replayStacks measures tcpip alone (bulk segments, connect+close) and the
// software ktls record path over the same direct pair.
func replayStacks(r replays) error {
	addr := func(p *stackPair) wire.Addr { return wire.Addr{IP: p.b.IP(), Port: iperfPort} }
	msg := payload(7, iperfMsg)

	// Bulk: one connection, sender refills on drain, receiver discards.
	p := newStackPair()
	p.b.Listen(iperfPort, func(s *tcpip.Socket) {
		s.OnReadable = func(s *tcpip.Socket) {
			for {
				if _, ok := s.ReadChunk(); !ok {
					return
				}
			}
		}
	})
	p.a.Connect(addr(p), func(s *tcpip.Socket) {
		fill := func(s *tcpip.Socket) {
			for s.Write(msg) > 0 {
			}
		}
		s.OnDrain = fill
		fill(s)
	})
	bulk := func(p *stackPair, segs int) {
		for target := p.data + uint64(segs); p.data < target; {
			p.advance()
		}
	}
	bulk(p, 4096) // slow start
	r["tcpip.segment_ns"], r["tcpip.segment_allocs"] = measure(func(n int) { bulk(p, n) })

	// Connect + close: handshake, FIN exchange, both sockets gone.
	p = newStackPair()
	closed := 0
	p.b.Listen(iperfPort, func(s *tcpip.Socket) {
		s.OnReadable = func(s *tcpip.Socket) {
			if s.EOF() {
				s.Close()
			}
		}
	})
	r["tcpip.connect_close_ns"], r["tcpip.connect_close_allocs"] = measure(func(n int) {
		for i := 0; i < n; i++ {
			c := p.a.Connect(addr(p), func(s *tcpip.Socket) { s.Close() })
			c.OnClose = func(*tcpip.Socket) { closed++ }
			p.settle()
		}
	})
	if closed == 0 {
		return fmt.Errorf("replay: tcpip connect/close never completed")
	}

	// Software kTLS: 16 KiB records sealed, carried, opened, delivered.
	p = newStackPair()
	cli, srv := experiments.TLSKeys(tlsRecord)
	var records uint64
	var server *ktls.Conn
	p.b.Listen(iperfPort, func(s *tcpip.Socket) {
		conn, err := ktls.NewConn(s, srv)
		must(err)
		conn.OnPlain = func(ktls.PlainChunk) {}
		server = conn
	})
	var sock *tcpip.Socket
	p.a.Connect(addr(p), func(s *tcpip.Socket) {
		sock = s
		conn, err := ktls.NewConn(s, cli)
		must(err)
		fill := func(c *ktls.Conn) {
			for c.Write(msg) > 0 {
			}
		}
		conn.OnDrain = fill
		fill(conn)
	})
	tlsBulk := func(n int) {
		for target := records + uint64(n); records < target; {
			p.advance()
			if server != nil {
				records = server.Stats.RecordsRx
			}
		}
	}
	tlsBulk(256)
	r["ktls.sw_record_ns_16k"], _ = measure(tlsBulk)
	if server.Stats.AuthFailures != 0 {
		return fmt.Errorf("replay: software ktls authentication failed")
	}

	// NewConn on an established socket: the per-connection L5P set-up the
	// churn workload pays twice per connection.
	r["ktls.newconn_ns"], r["ktls.newconn_allocs"] = measure(func(n int) {
		for i := 0; i < n; i++ {
			if _, err := ktls.NewConn(sock, cli); err != nil {
				panic(err)
			}
		}
	})
	return nil
}
