package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/blockdev"
	"repro/internal/cycles"
	"repro/internal/experiments"
	"repro/internal/ktls"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/offload"
	"repro/internal/tcpip"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// The four workload drivers. They mirror experiments.RunIperf / RunFio /
// RunChurn — same worlds, same ledger charges, so the modeled numbers
// cross-read against PERF_9.json and the paper tables — but the
// application callbacks live here, because the benchmark needs three
// things those functions do not offer: every delivered byte checked
// against a seed-derived pattern, a hook between warm-up and the measured
// window, and span brackets around the app/L5P seams for the traced run.
// All of them are closed-loop: senders are limited by TCP windows, fio by
// its queue depth, churn by its slot count.

// tuning overrides a workload's NIC queue count and the simulator's shard
// workers. The zero value keeps the workload's own queue count and the
// library's default workers (GOMAXPROCS) — what users get. Only the
// traced run's workers x queues table sets it.
type tuning struct {
	queues  int
	workers int
}

func (t tuning) queuesOr(def int) int {
	if t.queues > 0 {
		return t.queues
	}
	return def
}

// appCounters is what the verifying application callbacks saw since the
// last reset: payload bytes that matched their pattern, and operations
// attempted and failed (what an operation is depends on the workload).
type appCounters struct {
	bytes, ops, failed uint64
}

func (c appCounters) String() string {
	return fmt.Sprintf("%d ops, %d failed, %d payload bytes", c.ops, c.failed, c.bytes)
}

// engineTotals sums the offload-engine statistics the application can
// reach through the L5P objects it owns.
type engineTotals struct {
	rx offload.RxStats
	tx offload.TxStats
}

// inst is one built world with traffic running, plus the hooks the
// harness needs around the measured window.
type inst struct {
	sim   *netsim.Simulator
	model *cycles.Model
	pool  *wire.FramePool
	// hosts is every machine; dut is the device under test whose ledger
	// the modeled throughput is computed from.
	hosts []*experiments.Machine
	dut   *experiments.Machine
	links []*netsim.Link

	app appCounters
	// stop ends the offered load; drain then runs the world until every
	// in-flight operation has finished and reports whether it did.
	stop  func()
	drain func() bool
	// engines reports offload-engine totals (zero for plain TCP).
	engines func() engineTotals
	// l5p adds the workload's L5P count metrics to m.
	l5p func(m map[string]float64)
	// leaked counts NIC state still held after drain (churn only).
	leaked func() int
}

func newInst(sim *netsim.Simulator, model *cycles.Model, pool *wire.FramePool,
	dut *experiments.Machine, hosts []*experiments.Machine, links ...*netsim.Link) *inst {
	in := &inst{sim: sim, model: model, pool: pool, dut: dut, hosts: hosts, links: links}
	in.engines = func() engineTotals { return engineTotals{} }
	in.l5p = func(map[string]float64) {}
	in.leaked = func() int { return 0 }
	return in
}

// payload returns n seed-derived bytes: the content every sender repeats.
func payload(seed int64, n int) []byte {
	p := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

// verifier checks one byte stream against a repeating pattern and counts
// fixed-size units of it as operations. A unit with any mismatching byte
// is a failed operation; only matching bytes count as delivered payload.
type verifier struct {
	c       *appCounters
	pattern []byte
	unit    int
	pos     int // position within pattern
	inUnit  int
	bad     bool
}

func (v *verifier) check(p []byte) {
	for len(p) > 0 {
		n := min(len(p), len(v.pattern)-v.pos, v.unit-v.inUnit)
		if bytes.Equal(p[:n], v.pattern[v.pos:v.pos+n]) {
			v.c.bytes += uint64(n)
		} else {
			v.bad = true
		}
		v.pos = (v.pos + n) % len(v.pattern)
		v.inUnit += n
		p = p[n:]
		if v.inUnit == v.unit {
			v.c.ops++
			if v.bad {
				v.c.failed++
			}
			v.inUnit, v.bad = 0, false
		}
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

const (
	iperfStreams = 4
	iperfMsg     = 256 << 10
	tlsRecord    = 16 << 10
	iperfPort    = 5001
)

var pairLink = netsim.LinkConfig{Gbps: 100, Latency: 2 * time.Microsecond}

// startIperf opens iperfStreams bulk senders from the generator to the
// server: TLS with receive and transmit offload when tls is set, plain
// TCP otherwise. One operation is one 16 KiB unit of the stream — a TLS
// record, or the same span of plain TCP payload.
func startIperf(rec *recorder, seed int64, tls bool, queues int, pollDelay time.Duration) *inst {
	sp := rec.begin(spanWorldBuild)
	w := experiments.NewPairWorld(pairLink, nic.Config{Queues: queues, RxPollDelay: pollDelay})
	rec.end(sp)
	in := newInst(w.Sim, &w.Model, w.Pool, w.Srv, []*experiments.Machine{w.Gen, w.Srv}, w.Link)
	rec.shimPair(w)

	msg := payload(seed, iperfMsg)
	cliTLS, srvTLS := experiments.TLSKeys(tlsRecord)
	var rcv, snd []*ktls.Conn
	stopped := false

	w.Srv.Stack.Listen(iperfPort, func(s *tcpip.Socket) {
		v := &verifier{c: &in.app, pattern: msg, unit: tlsRecord}
		if !tls {
			s.OnReadable = func(s *tcpip.Socket) {
				sp := rec.begin(spanAppRx)
				w.Srv.Ledger.Charge(cycles.HostApp, cycles.Syscall, w.Model.SyscallCost, 0)
				for {
					ch, ok := s.ReadChunk()
					if !ok {
						break
					}
					v.check(ch.Data)
				}
				rec.end(sp)
			}
			return
		}
		conn, err := ktls.NewConn(s, srvTLS)
		must(err)
		must(conn.EnableRxOffload(w.Srv.NIC))
		conn.OnPlain = func(pc ktls.PlainChunk) {
			sp := rec.begin(spanAppRx)
			v.check(pc.Data)
			rec.end(sp)
		}
		conn.OnError = func(error) { in.app.ops++; in.app.failed++ }
		rec.shimReadable(s, spanKTLSRx)
		rcv = append(rcv, conn)
	})

	for i := 0; i < iperfStreams; i++ {
		w.Gen.Stack.Connect(wire.Addr{IP: w.Srv.Stack.IP(), Port: iperfPort}, func(s *tcpip.Socket) {
			// off is this sender's position in msg: a short write resumes
			// where it stopped, so the stream is msg repeated exactly.
			off := 0
			if !tls {
				pump := func(s *tcpip.Socket) {
					if stopped {
						return
					}
					sp := rec.begin(spanAppTx)
					w.Gen.Ledger.Charge(cycles.HostApp, cycles.Syscall, w.Model.SyscallCost, 0)
					for {
						wr := rec.begin(spanTCPWrite)
						n := s.Write(msg[off:])
						rec.end(wr)
						if n == 0 {
							break
						}
						off = (off + n) % len(msg)
					}
					rec.end(sp)
				}
				s.OnDrain = pump
				pump(s)
				return
			}
			conn, err := ktls.NewConn(s, cliTLS)
			must(err)
			must(conn.EnableTxOffload(w.Gen.NIC, false))
			snd = append(snd, conn)
			pump := func(c *ktls.Conn) {
				if stopped {
					return
				}
				sp := rec.begin(spanAppTx)
				for {
					wr := rec.begin(spanKTLSWrite)
					n := c.Write(msg[off:])
					rec.end(wr)
					if n == 0 {
						break
					}
					off = (off + n) % len(msg)
				}
				rec.end(sp)
			}
			conn.OnDrain = pump
			pump(conn)
		})
	}

	in.stop = func() { stopped = true }
	// Without new writes the send buffers empty within microseconds at
	// 100 Gbps; a few RTO periods cover any straggler.
	in.drain = func() bool { w.Sim.RunFor(5 * time.Millisecond); return true }
	in.engines = func() engineTotals {
		var t engineTotals
		for _, c := range rcv {
			telemetry.Sum(&t.rx, c.RxEngine().Stats)
		}
		for _, c := range snd {
			telemetry.Sum(&t.tx, c.TxEngine().Stats)
		}
		return t
	}
	in.l5p = func(m map[string]float64) {
		var st ktls.Stats
		for _, c := range rcv {
			telemetry.Sum(&st, c.Stats)
		}
		addKTLS(m, st)
	}
	return in
}

// addKTLS accumulates the receive-side ktls counters into m as raw
// totals; fingerprint turns them into shares.
func addKTLS(m map[string]float64, st ktls.Stats) {
	m["ktls.sw_decrypt_bytes"] += float64(st.SwDecryptBytes)
	m["ktls.auth_failures"] += float64(st.AuthFailures)
}

const (
	fioReqSize = 256 << 10
	fioDepth   = 32
	fioRegion  = 1 << 22 // LBAs to spread random reads over
)

// startFio keeps fioDepth random 256 KiB reads outstanding on the storage
// world's NVMe-TCP host (Fig. 10's workload) with copy and CRC receive
// offload on the server NIC and digest transmit offload on the target.
// One operation is one read; its buffer must equal blockdev's pattern.
func startFio(rec *recorder, seed int64, queues int, pollDelay time.Duration) *inst {
	sp := rec.begin(spanWorldBuild)
	w := experiments.NewStorageWorld(experiments.StorageOpts{
		NVMePlace: true, NVMeCRC: true, TargetTxOffload: true,
		NICCfg: nic.Config{Queues: queues, RxPollDelay: pollDelay},
	})
	rec.end(sp)
	in := newInst(w.Sim, &w.Model, w.Pool, w.Srv,
		[]*experiments.Machine{w.Gen, w.Srv, w.Tgt}, w.Front, w.Back)
	rec.shimStorage(w)

	const blocks = fioReqSize / blockdev.BlockSize
	w.Host.WorkingSetBytes = fioDepth * fioReqSize
	rng := rand.New(rand.NewSource(seed))
	stopped := false
	inflight := 0

	var issue func()
	issue = func() {
		if stopped {
			return
		}
		lba := uint64(rng.Intn(fioRegion)) * blocks
		buf := make([]byte, fioReqSize)
		w.Srv.Ledger.Charge(cycles.HostApp, cycles.AppWork, w.Model.AppPerRequest, 0)
		w.Srv.Ledger.Charge(cycles.HostApp, cycles.Syscall, w.Model.SyscallCost, 0)
		inflight++
		w.Host.ReadBlocks(lba, blocks, buf, func(err error) {
			sp := rec.begin(spanAppRx)
			inflight--
			// Interrupt + completion + context switch back into fio.
			w.Srv.Ledger.Charge(cycles.HostApp, cycles.AppWork, w.Model.FioPerIO, 0)
			in.app.ops++
			if err == nil && patternOK(lba, buf) {
				in.app.bytes += fioReqSize
			} else {
				in.app.failed++
			}
			issue()
			rec.end(sp)
		})
	}
	for i := 0; i < fioDepth; i++ {
		issue()
	}

	in.stop = func() { stopped = true }
	in.drain = func() bool {
		for i := 0; i < 100 && inflight > 0; i++ {
			w.Sim.RunFor(time.Millisecond)
		}
		w.Sim.RunFor(time.Millisecond) // final ACKs
		return inflight == 0
	}
	in.engines = func() engineTotals { return engineTotals{rx: w.Host.RxEngine().Stats} }
	in.l5p = func(m map[string]float64) {
		st := w.Host.Stats
		m["nvmetcp.bytes_copied"] += float64(st.BytesCopied)
		m["nvmetcp.bytes_placed"] += float64(st.BytesPlaced)
		m["nvmetcp.crc_sw_bytes"] += float64(st.CRCSwBytes)
		m["nvmetcp.digest_errors"] += float64(st.DigestErrors)
	}
	return in
}

// patternOK reports whether buf holds blockdev.Pattern for the blocks
// starting at lba. It recomputes the generator's 8-byte words directly —
// a byte-at-a-time Pattern call per read would cost as much host time as
// the transfer being measured (TestPatternOK pins the two together).
func patternOK(lba uint64, buf []byte) bool {
	for b := 0; b < len(buf); b += blockdev.BlockSize {
		base := (lba + uint64(b/blockdev.BlockSize)) * 0x9E3779B97F4A7C15
		blk := buf[b : b+blockdev.BlockSize]
		for wd := 0; wd < blockdev.BlockSize/8; wd++ {
			if binary.LittleEndian.Uint64(blk[wd*8:]) != base^uint64(wd)*0xBF58476D1CE4E5B9 {
				return false
			}
		}
	}
	return true
}

const (
	churnCacheFlows = 64
	churnConcurrent = 96
	churnBytes      = 24 << 10
	churnLoss       = 0.001
	churnChunk      = 4096
)

// startChurn runs the connection-churn front end of experiments.RunChurn:
// churnConcurrent slots each open a TLS connection with both offloads,
// push ~24 KiB in 4 KiB records, close, and respawn, over a lossy link
// and a context cache smaller than the live flow count. One operation is
// one connection: it succeeds when the server saw exactly the bytes the
// client wrote, every one matching the pattern, and both ends closed.
func startChurn(rec *recorder, seed int64, queues int) *inst {
	sp := rec.begin(spanWorldBuild)
	link := pairLink
	link.AtoB = netsim.FaultConfig{LossProb: churnLoss, Seed: seed}
	w := experiments.NewPairWorld(link, nic.Config{Queues: queues, CtxCacheFlows: churnCacheFlows})
	rec.end(sp)
	// Short-lived flows on a microsecond fabric need datacenter loss
	// recovery, not 200 ms RTOs.
	w.Model.MinRTOMicros = 2000
	w.Model.MaxRTOMicros = 500000
	w.Gen.Stack.EnableSACK()
	w.Srv.Stack.EnableSACK()
	in := newInst(w.Sim, &w.Model, w.Pool, w.Srv, []*experiments.Machine{w.Gen, w.Srv}, w.Link)
	rec.shimPair(w)

	rng := rand.New(rand.NewSource(seed + 19))
	cliTLS, srvTLS := experiments.TLSKeys(0)
	msg := payload(seed, churnChunk)
	addr := wire.Addr{IP: w.Srv.Stack.IP(), Port: iperfPort}
	stopped := false
	var eng engineTotals
	var tlsStats ktls.Stats

	// want maps a client flow to the bytes it will send; the server side
	// looks its peer up at close to decide whether the connection passed.
	want := make(map[wire.FlowID]int)
	open := 0   // connections established and not yet judged
	closed := 0 // connections judged

	w.Srv.Stack.Listen(iperfPort, func(s *tcpip.Socket) {
		conn, err := ktls.NewConn(s, srvTLS)
		must(err)
		must(conn.EnableRxOffload(w.Srv.NIC))
		var got appCounters
		v := &verifier{c: &got, pattern: msg, unit: churnChunk}
		failed := false
		conn.OnPlain = func(pc ktls.PlainChunk) {
			sp := rec.begin(spanAppRx)
			before := got.bytes
			v.check(pc.Data)
			in.app.bytes += got.bytes - before
			rec.end(sp)
		}
		conn.OnError = func(error) { failed = true }
		conn.OnClose = func(c *ktls.Conn) {
			// Peer closed and every record is processed: destroy the NIC
			// context (l5o_destroy) and finish the TCP teardown.
			telemetry.Sum(&eng.rx, c.RxEngine().Stats)
			telemetry.Sum(&tlsStats, c.Stats)
			c.DisableRxOffload()
			s.Close()
			peer := s.Flow().Reverse()
			total, known := want[peer]
			if !known {
				return // an orphaned handshake retry: carried no data
			}
			delete(want, peer)
			open--
			closed++
			in.app.ops++
			if failed || got.failed > 0 || int(got.bytes) != total {
				in.app.failed++
			}
		}
		rec.shimReadable(s, spanKTLSRx)
	})

	type slot struct{ sock *tcpip.Socket }
	var spawn func(sl *slot)
	spawn = func(sl *slot) {
		if stopped {
			sl.sock = nil
			return
		}
		total := churnBytes/2 + rng.Intn(churnBytes)
		var sock *tcpip.Socket
		sock = w.Gen.Stack.Connect(addr, func(s *tcpip.Socket) {
			if sl.sock != s {
				// A handshake watchdog already replaced this connection;
				// it established late, so just tear it down.
				s.Close()
				return
			}
			conn, err := ktls.NewConn(s, cliTLS)
			must(err)
			must(conn.EnableTxOffload(w.Gen.NIC, false))
			want[s.Flow()] = total
			open++
			remaining := total
			pump := func(c *ktls.Conn) {
				sp := rec.begin(spanAppTx)
				defer rec.end(sp)
				for remaining > 0 {
					wr := rec.begin(spanKTLSWrite)
					n := c.Write(msg[:min(remaining, len(msg))])
					rec.end(wr)
					if n == 0 {
						return
					}
					remaining -= n
				}
				c.OnDrain = nil
				c.Socket().Close()
			}
			conn.OnDrain = pump
			s.OnClose = func(s *tcpip.Socket) {
				// Fully closed means every offloaded byte was ACKed, so
				// detaching the transmit context cannot leak plaintext
				// into a retransmission.
				telemetry.Sum(&eng.tx, conn.TxEngine().Stats)
				conn.DisableTxOffload()
				if sl.sock == s {
					spawn(sl)
				}
			}
			pump(conn)
		})
		sl.sock = sock
		// Handshake watchdog: a lost SYN would otherwise idle this slot
		// for a full RTO; a real front end would see the next arrival
		// immediately. The orphan finishes (or retries) in the background.
		w.Sim.After(600*time.Microsecond, func() {
			if sl.sock == sock && !sock.Established() && !stopped {
				spawn(sl)
			}
		})
	}
	for i := 0; i < churnConcurrent; i++ {
		sl := &slot{}
		// Jittered arrival so slots don't churn in lockstep.
		w.Sim.After(time.Duration(rng.Intn(100))*time.Microsecond, func() { spawn(sl) })
	}

	in.stop = func() { stopped = true }
	in.leaked = func() int {
		n := 0
		for _, d := range []*nic.NIC{w.Gen.NIC, w.Srv.NIC} {
			n += d.CacheLen()
			for i := 0; i < d.NumQueues(); i++ {
				q := d.Queue(i)
				tx, rx := q.EngineFlows()
				n += tx + rx + q.HarvestPending()
			}
		}
		return n
	}
	// Drain on NIC state, not simulator quiescence: a peer whose socket
	// fully closed sends no RST in this stack, so the other side may
	// retransmit its FIN on a capped-RTO timer indefinitely — harmless
	// zombies that hold no NIC state. RTO backoff after unlucky loss runs
	// to 500 ms, so give stragglers a couple of seconds of virtual time.
	in.drain = func() bool {
		for i := 0; i < 1000 && (in.leaked() > 0 || open > 0); i++ {
			w.Sim.RunFor(2 * time.Millisecond)
		}
		return open == 0
	}
	in.engines = func() engineTotals { return eng }
	in.l5p = func(m map[string]float64) {
		addKTLS(m, tlsStats)
		m["conns"] = float64(closed)
	}
	return in
}
