package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/appsim"
	"repro/internal/blockdev"
	"repro/internal/cycles"
	"repro/internal/ktls"
	"repro/internal/netsim"
	"repro/internal/offload"
	"repro/internal/tcpip"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// IperfMode selects the iperf variant: plain TCP, software TLS, or the
// autonomous TLS offload (§6.1, §6.4).
type IperfMode int

// Iperf variants (the three curves of Figs. 16–18).
const (
	IperfTCP IperfMode = iota
	IperfTLS
	IperfTLSOffload
)

// String names the variant as the figures do.
func (m IperfMode) String() string {
	switch m {
	case IperfTCP:
		return "tcp"
	case IperfTLS:
		return "tls"
	case IperfTLSOffload:
		return "offload"
	}
	return "?"
}

// IperfResult is the outcome of one iperf run.
type IperfResult struct {
	// Bytes is application payload delivered at the receiver.
	Bytes uint64
	// Elapsed is the measured virtual-time window.
	Elapsed time.Duration
	// Snd and Rcv are the per-machine ledger deltas over the window.
	Snd, Rcv *cycles.Ledger
	// TLS aggregates the receiver-side record classification.
	TLS ktls.Stats
	// RxEngine aggregates receive-engine statistics across streams.
	RxEngine offload.RxStats
	// TxEngine aggregates transmit-engine statistics across streams.
	TxEngine offload.TxStats
	// Records is total records received (for percentage bases).
	Records uint64

	verdict
	rcv []patternCursor // per receiving connection, in accept order
}

// verdict is what a workload driver's byte checks found over a whole run,
// warm-up included. violations is empty on a correct run, whatever the
// faults did.
type verdict struct {
	checked     uint64   // delivered payload verified against what was sent
	violations  []string // wrong bytes delivered, receiver ahead of sender
	connsFailed int      // connections an error killed
}

// patternCursor is one receiving connection's position in the send pattern.
type patternCursor struct {
	off uint64
	bad bool // a violation was already reported for this connection
}

// check verifies data delivered on connection id against the send pattern
// at that connection's stream offset.
func (r *IperfResult) check(id int, data []byte) {
	c := &r.rcv[id]
	if i := patternMismatch(data, c.off); i >= 0 && !c.bad {
		c.bad = true
		r.violations = append(r.violations,
			fmt.Sprintf("conn %d: wrong byte delivered at stream offset %d", id, c.off+uint64(i)))
	}
	c.off += uint64(len(data))
	r.checked += uint64(len(data))
}

// rcvGbps is the receiver's single-core throughput over the window.
func (r *IperfResult) rcvGbps(m *cycles.Model) float64 {
	return oneCoreGbps(m, r.Rcv, r.Bytes, r.Elapsed)
}

// RunIperf drives `streams` sender connections for dur of virtual time
// after establishment and returns the measured window. Every stream sends
// the offset-indexed pattern and every delivered byte is checked against
// it; a connection error is counted, not fatal. A world built with a fault
// schedule has it armed once the warm-up ends.
func RunIperf(w *PairWorld, mode IperfMode, streams, msgSize, recordSize int, dur time.Duration) *IperfResult {
	return runIperf(w, mode, streams, msgSize, recordSize, 3*time.Millisecond, dur)
}

// runIperf is RunIperf with a caller-chosen clean warm-up. The writers stop
// when the window closes, so a caller may drain the world afterwards.
func runIperf(w *PairWorld, mode IperfMode, streams, msgSize, recordSize int, warm, dur time.Duration) *IperfResult {
	cliTLS, srvTLS := TLSKeys(recordSize)
	if w.faults != nil && w.faults.RxPolicy != nil {
		srvTLS.RxFallback = w.faults.RxPolicy
	}
	res := &IperfResult{}
	var rcvConns, sndConns []*ktls.Conn
	var sent uint64
	stopped := false

	w.Srv.Stack.Listen(5001, func(s *tcpip.Socket) {
		id := len(res.rcv)
		res.rcv = append(res.rcv, patternCursor{})
		if mode == IperfTCP {
			s.OnReadable = func(s *tcpip.Socket) {
				w.Srv.Ledger.Charge(cycles.HostApp, cycles.Syscall, w.Model.SyscallCost, 0)
				for {
					ch, ok := s.ReadChunk()
					if !ok {
						break
					}
					res.check(id, ch.Data)
				}
			}
			return
		}
		conn, err := ktls.NewConn(s, srvTLS)
		if err != nil {
			panic(err)
		}
		if mode == IperfTLSOffload {
			if err := conn.EnableRxOffload(w.Srv.NIC); err != nil {
				panic(err)
			}
		}
		conn.OnPlain = func(pc ktls.PlainChunk) { res.check(id, pc.Data) }
		conn.OnError = func(error) { res.connsFailed++ }
		rcvConns = append(rcvConns, conn)
	})

	// One read-only copy of the pattern serves every stream: the message
	// for stream offset off starts at phase off mod patPeriod.
	pat := make([]byte, msgSize+patPeriod)
	fillPattern(pat, 0)
	for i := 0; i < streams; i++ {
		w.Gen.Stack.Connect(wire.Addr{IP: w.Srv.Stack.IP(), Port: 5001}, func(s *tcpip.Socket) {
			var off uint64
			push := func(send func([]byte) int) {
				for !stopped {
					p := off % patPeriod
					n := send(pat[p : p+uint64(msgSize)])
					if n <= 0 {
						break
					}
					off += uint64(n)
					sent += uint64(n)
				}
			}
			if mode == IperfTCP {
				send := s.Write
				pump := func(*tcpip.Socket) {
					w.Gen.Ledger.Charge(cycles.HostApp, cycles.Syscall, w.Model.SyscallCost, 0)
					push(send)
				}
				s.OnDrain = pump
				pump(s)
				return
			}
			conn, err := ktls.NewConn(s, cliTLS)
			if err != nil {
				panic(err)
			}
			if mode == IperfTLSOffload {
				if err := conn.EnableTxOffload(w.Gen.NIC, false); err != nil {
					panic(err)
				}
			}
			conn.OnError = func(error) { res.connsFailed++ }
			sndConns = append(sndConns, conn)
			send := conn.Write
			pump := func(*ktls.Conn) { push(send) }
			conn.OnDrain = pump
			pump(conn)
		})
	}

	// Let connections establish and pipelines fill, then arm the fault
	// schedule and measure.
	w.Sim.RunFor(warm)
	w.faults.arm(w.Sim, w.Link, w.Link.SetFaultsAtoB, w.Gen.Stack, w.Srv.Stack)
	warmBytes := res.checked
	var tlsBase ktls.Stats
	for _, c := range rcvConns {
		telemetry.Sum(&tlsBase, c.Stats)
	}
	sndBefore := w.Gen.Ledger.Clone()
	rcvBefore := w.Srv.Ledger.Clone()
	start := w.Sim.Now()
	w.Sim.RunFor(dur)
	stopped = true
	res.Elapsed = w.Sim.Now() - start
	res.Bytes = res.checked - warmBytes
	res.Snd = cycles.Diff(w.Gen.Ledger, sndBefore)
	res.Rcv = cycles.Diff(w.Srv.Ledger, rcvBefore)
	if res.checked > sent {
		res.violations = append(res.violations,
			fmt.Sprintf("receiver delivered %d bytes but sender only produced %d", res.checked, sent))
	}
	for _, c := range rcvConns {
		telemetry.Sum(&res.TLS, c.Stats)
		if e := c.RxEngine(); e != nil {
			telemetry.Sum(&res.RxEngine, e.Stats)
		}
	}
	telemetry.Sub(&res.TLS, tlsBase)
	res.Records = res.TLS.RecordsRx
	for _, c := range sndConns {
		if e := c.TxEngine(); e != nil {
			telemetry.Sum(&res.TxEngine, e.Stats)
		}
	}
	w.FlushTelemetry()
	return res
}

// FioResult is the outcome of one fio-style run.
type FioResult struct {
	Requests uint64
	Bytes    uint64
	Elapsed  time.Duration
	Ledger   *cycles.Ledger // server-machine delta

	verdict
	failed uint64 // reads completed with an error, warm-up included
}

// gbps is the server's single-core throughput over the window.
func (r *FioResult) gbps(m *cycles.Model) float64 {
	return oneCoreGbps(m, r.Ledger, r.Bytes, r.Elapsed)
}

// RunFio keeps `depth` random reads of reqSize outstanding on the storage
// world's host for dur of virtual time (Fig. 10's workload). Every block a
// read returns is checked against the device's deterministic content; a
// failed read is counted and the slot re-issued, and once the association
// dies no read is issued again. A world built with a fault schedule has it
// armed once the warm-up ends.
func RunFio(w *StorageWorld, reqSize, depth int, dur time.Duration) *FioResult {
	res := &FioResult{}
	blocks := (reqSize + blockdev.BlockSize - 1) / blockdev.BlockSize
	w.Host.WorkingSetBytes = depth * reqSize
	w.Host.OnError = func(error) { res.connsFailed++ }
	rng := rand.New(rand.NewSource(7))
	const region = 1 << 22 // LBAs to spread random reads over

	lat := latencyHistogram("fio.request_latency_ns")
	want := make([]byte, blockdev.BlockSize)
	// One slot per outstanding read, each with its own buffer. A slot's
	// buffer is reused only by the read its completion issues, and the host
	// has dropped the finished read's RR-table entry before it completes,
	// so the NIC can no longer place bytes into the buffer.
	type slot struct {
		buf    []byte
		lba    uint64
		issued time.Duration
		done   func(error)
	}
	issue := func(sl *slot) {
		if res.connsFailed > 0 {
			return
		}
		sl.lba = uint64(rng.Intn(region)) * uint64(blocks)
		w.Srv.Ledger.Charge(cycles.HostApp, cycles.AppWork, w.Model.AppPerRequest, 0)
		w.Srv.Ledger.Charge(cycles.HostApp, cycles.Syscall, w.Model.SyscallCost, 0)
		sl.issued = w.Sim.Now()
		w.Host.ReadBlocks(sl.lba, blocks, sl.buf, sl.done)
	}
	for i := 0; i < depth; i++ {
		sl := &slot{buf: make([]byte, blocks*blockdev.BlockSize)}
		sl.done = func(err error) {
			// Interrupt + completion + context switch back into fio.
			w.Srv.Ledger.Charge(cycles.HostApp, cycles.AppWork, w.Model.FioPerIO, 0)
			lat.Record(int64(w.Sim.Now() - sl.issued))
			if err != nil {
				res.failed++
				issue(sl)
				return
			}
			res.Requests++
			res.Bytes += uint64(len(sl.buf))
			res.checked += uint64(len(sl.buf))
			for i := 0; i < blocks; i++ {
				blockdev.Pattern(sl.lba+uint64(i), 0, want)
				if !bytes.Equal(sl.buf[i*blockdev.BlockSize:(i+1)*blockdev.BlockSize], want) {
					res.violations = append(res.violations,
						fmt.Sprintf("read at lba %d delivered wrong block %d", sl.lba, i))
					break
				}
			}
			issue(sl)
		}
		issue(sl)
	}
	w.Sim.RunFor(2 * time.Millisecond) // warm the pipeline
	w.faults.arm(w.Sim, w.Back, w.Back.SetFaultsBtoA, w.Srv.Stack, w.Tgt.Stack)
	res.Requests, res.Bytes = 0, 0
	before := w.Srv.Ledger.Clone()
	start := w.Sim.Now()
	w.Sim.RunFor(dur)
	res.Elapsed = w.Sim.Now() - start
	res.Ledger = cycles.Diff(w.Srv.Ledger, before)
	w.FlushTelemetry()
	return res
}

// HTTPResult is the outcome of one request/response run: nginx/wrk or
// Redis/memtier.
type HTTPResult struct {
	Bytes    uint64
	Requests uint64
	Elapsed  time.Duration
	Srv      *cycles.Ledger // server-machine delta
	AvgRTT   time.Duration

	verdict
}

// RunHTTPC2 drives the page-cache configuration on a pair world.
func RunHTTPC2(w *PairWorld, mode appsim.Mode, conns, fileSize int, dur time.Duration) *HTTPResult {
	return runApp(w.Sim, w.Gen, w.Srv, w.FlushTelemetry,
		appsim.HTTP, mode, appsim.PageCacheStore{}, conns, 8, fileSize, dur)
}

// RunHTTPC1 drives the cold-cache configuration on a storage world (the
// server fetches every file over NVMe-TCP).
func RunHTTPC1(w *StorageWorld, mode appsim.Mode, conns, fileSize int, dur time.Duration) *HTTPResult {
	return runApp(w.Sim, w.Gen, w.Srv, w.FlushTelemetry,
		appsim.HTTP, mode, &appsim.NVMeStore{Host: w.Host}, conns, 8, fileSize, dur)
}

// RunKV drives the Redis-on-Flash GET workload on a storage world.
func RunKV(w *StorageWorld, conns, valueSize int, dur time.Duration) *HTTPResult {
	return runApp(w.Sim, w.Gen, w.Srv, w.FlushTelemetry,
		appsim.RESP, appsim.ModePlain, &appsim.NVMeStore{Host: w.Host}, conns, 16, valueSize, dur)
}

// runApp serves objects of size bytes in format f from store on srv to a
// load generator on gen, whose conns connections cycle through `objects`
// ids. It warms the workload for 3 ms, measures dur of it, then flushes
// the world's telemetry. Every body byte is checked, warm-up included; an
// error either end counts is a failed connection in the verdict.
func runApp(sim *netsim.Simulator, gen, srv *Machine, flush func(), f *appsim.Format, mode appsim.Mode,
	store appsim.Store, conns, objects, size int, dur time.Duration) *HTTPResult {
	cliTLS, srvTLS := TLSKeys(0)
	as := appsim.NewServer(srv.Stack, appsim.ServerConfig{
		Format:    f,
		Mode:      mode,
		TLSCfg:    srvTLS,
		Store:     store,
		ValueSize: size,
		Dev:       srv.NIC,
	})
	cl := appsim.NewClient(gen.Stack, appsim.ClientConfig{
		Format:      f,
		TLS:         mode.TLS(),
		TLSCfg:      cliTLS,
		Server:      srv.Stack.IP(),
		Connections: conns,
		FileSize:    size,
		Objects:     objects,
	})
	if tel != nil {
		as.RegisterTelemetry(tel.Reg)
		cl.RegisterTelemetry(tel.Reg)
	}
	sim.RunFor(3 * time.Millisecond)
	bytes0, n0, rtt0 := cl.Stats.Bytes, cl.Stats.Responses, cl.TotalRTT
	before := srv.Ledger.Clone()
	start := sim.Now()
	sim.RunFor(dur)
	res := &HTTPResult{
		Bytes:    cl.Stats.Bytes - bytes0,
		Requests: cl.Stats.Responses - n0,
		Elapsed:  sim.Now() - start,
		Srv:      cycles.Diff(srv.Ledger, before),
		verdict:  verdict{checked: cl.Stats.Bytes, connsFailed: int(cl.Stats.Errors + as.Stats.Errors)},
	}
	if res.Requests > 0 {
		res.AvgRTT = (cl.TotalRTT - rtt0) / time.Duration(res.Requests)
	}
	if n := cl.Stats.VerifyFails; n > 0 {
		res.violations = append(res.violations, fmt.Sprintf("%d responses delivered a wrong byte", n))
	}
	flush()
	return res
}

// Throughput conversion helpers shared by the macro experiments.

// oneCoreGbps is the paper's single-core throughput: the smaller of what
// one modeled core can process and what the run actually moved.
func oneCoreGbps(m *cycles.Model, lg *cycles.Ledger, bytes uint64, elapsed time.Duration, caps ...float64) float64 {
	g := m.SingleCoreGbps(lg, bytes)
	if sim := cycles.Gbps(bytes, elapsed.Seconds()); sim < g {
		// The run itself was slower (drive- or latency-bound).
		g = sim
	}
	for _, c := range caps {
		if c < g {
			g = c
		}
	}
	return g
}

// nCoreGbps is the achievable throughput with n cores against device caps.
func nCoreGbps(m *cycles.Model, lg *cycles.Ledger, bytes uint64, n int, caps ...float64) float64 {
	one := m.SingleCoreGbps(lg, bytes)
	g := one * float64(n)
	if g > m.NICGbps {
		g = m.NICGbps
	}
	for _, c := range caps {
		if c < g {
			g = c
		}
	}
	return g
}
