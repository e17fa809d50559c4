package ktls

import (
	"bytes"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"repro/internal/cycles"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/tcpip"
	"repro/internal/wire"
)

func TestParseHeader(t *testing.T) {
	hdr := make([]byte, HeaderLen)
	PutHeader(hdr, 1000)
	layout, ok := ParseHeader(hdr)
	if !ok || layout.Total != HeaderLen+1000+TagLen || layout.Trailer != TagLen {
		t.Fatalf("layout=%+v ok=%v", layout, ok)
	}
	bad := append([]byte(nil), hdr...)
	bad[0] = 0x16
	if _, ok := ParseHeader(bad); ok {
		t.Error("wrong record type accepted")
	}
	bad = append([]byte(nil), hdr...)
	bad[1] = 2
	if _, ok := ParseHeader(bad); ok {
		t.Error("wrong version accepted")
	}
	PutHeader(hdr, MaxPlaintext+1)
	if _, ok := ParseHeader(hdr); ok {
		t.Error("oversized record accepted")
	}
}

func TestRecordNonce(t *testing.T) {
	var iv [12]byte
	for i := range iv {
		iv[i] = byte(i)
	}
	n0 := RecordNonce(iv, 0)
	if n0 != iv {
		t.Error("nonce 0 must equal the IV")
	}
	n1 := RecordNonce(iv, 1)
	n2 := RecordNonce(iv, 1)
	if n1 != n2 {
		t.Error("nonce not deterministic")
	}
	if n1 == n0 {
		t.Error("nonces must differ per record")
	}
}

// world wires two hosts with NICs across an impaired link.
type world struct {
	sim                *netsim.Simulator
	link               *netsim.Link
	cliStack, srvStack *tcpip.Stack
	cliNIC, srvNIC     *nic.NIC
	cliLedger          *cycles.Ledger
	srvLedger          *cycles.Ledger
	model              cycles.Model
}

func newWorld(cfg netsim.LinkConfig) *world { return newWorldNIC(cfg, nic.Config{}) }

// newWorldNIC is newWorld with both NICs configured from ncfg.
func newWorldNIC(cfg netsim.LinkConfig, ncfg nic.Config) *world {
	w := &world{sim: netsim.New(), model: cycles.DefaultModel(),
		cliLedger: &cycles.Ledger{}, srvLedger: &cycles.Ledger{}}
	w.link = netsim.NewLink(w.sim, cfg)
	w.cliStack = tcpip.NewStack(w.sim, [4]byte{10, 0, 0, 1}, &w.model, w.cliLedger)
	w.srvStack = tcpip.NewStack(w.sim, [4]byte{10, 0, 0, 2}, &w.model, w.srvLedger)
	w.cliNIC = nic.New(w.cliStack, w.link.SendAtoB, ncfg)
	w.srvNIC = nic.New(w.srvStack, w.link.SendBtoA, ncfg)
	w.link.AttachA(w.cliNIC)
	w.link.AttachB(w.srvNIC)
	return w
}

func testCfgPair() (cli, srv Config) {
	key := make([]byte, 16)
	var ivA, ivB [12]byte
	rand.New(rand.NewSource(99)).Read(key)
	ivA[0], ivB[0] = 0xA, 0xB
	cli = Config{Key: key, TxIV: ivA, RxIV: ivB}
	srv = Config{Key: key, TxIV: ivB, RxIV: ivA}
	return
}

type tlsRun struct {
	w        *world
	srvConn  *Conn
	cliConn  *Conn
	received bytes.Buffer
	done     bool
	ring     *poisonRing // the client's send ring as its retainer sees it
}

// poisonRing stands between a Conn's retainer and its socket. Whenever the
// retainer raises its retention floor, the acknowledged bytes it lets go of
// are overwritten in the ring on the spot, so a record dropped while a
// recovery replay could still read it corrupts the stream the server
// checks.
type poisonRing struct {
	*tcpip.Socket
	floor    uint32
	set      bool
	poisoned int // bytes overwritten
}

func (p *poisonRing) RetainFrom(seq uint32) {
	if end := seq; p.set && int32(end-p.floor) > 0 {
		if acked := p.AckedSeq(); int32(acked-end) < 0 {
			end = acked
		}
		if head, tail, ok := p.ReadSent(p.floor, end); ok {
			for _, b := range [][]byte{head, tail} {
				for i := range b {
					b[i] = 0xDB
				}
				p.poisoned += len(b)
			}
		}
	}
	p.Socket.RetainFrom(seq)
	p.floor, p.set = seq, true
}

// runTransfer sends data client→server with the given offload settings and
// returns the run for inspection.
func runTransfer(t *testing.T, cfg netsim.LinkConfig, data []byte,
	txOff, rxOff, zc bool, deadline time.Duration) *tlsRun {
	t.Helper()
	w := newWorld(cfg)
	cliCfg, srvCfg := testCfgPair()
	r := &tlsRun{w: w}

	w.srvStack.Listen(443, func(s *tcpip.Socket) {
		conn, err := NewConn(s, srvCfg)
		if err != nil {
			t.Fatal(err)
		}
		r.srvConn = conn
		if rxOff {
			if err := conn.EnableRxOffload(w.srvNIC); err != nil {
				t.Fatal(err)
			}
		}
		conn.OnPlain = func(pc PlainChunk) { r.received.Write(pc.Data) }
		conn.OnError = func(err error) { t.Fatalf("server record error: %v", err) }
		conn.OnClose = func(*Conn) { r.done = true }
	})

	w.cliStack.Connect(wire.Addr{IP: w.srvStack.IP(), Port: 443}, func(s *tcpip.Socket) {
		conn, err := NewConn(s, cliCfg)
		if err != nil {
			t.Fatal(err)
		}
		r.cliConn = conn
		if txOff {
			if err := conn.EnableTxOffload(w.cliNIC, zc); err != nil {
				t.Fatal(err)
			}
			// Every transfer holds the retainer to its contract: the
			// bytes of a record it drops are poisoned at once.
			r.ring = &poisonRing{Socket: s}
			conn.retain.Ring = r.ring
		}
		remaining := data
		var pump func(*Conn)
		pump = func(c *Conn) {
			n := c.Write(remaining)
			remaining = remaining[n:]
			if len(remaining) == 0 {
				c.Close()
				c.OnDrain = nil
			}
		}
		conn.OnDrain = pump
		pump(conn)
	})

	w.sim.RunUntil(deadline)
	if !r.done || !bytes.Equal(r.received.Bytes(), data) {
		t.Fatalf("transfer incomplete or corrupt: got %d bytes want %d (done=%v, srvStats=%+v)",
			r.received.Len(), len(data), r.done, statsOf(r.srvConn))
	}
	return r
}

func statsOf(c *Conn) Stats {
	if c == nil {
		return Stats{}
	}
	return c.Stats
}

func cleanLink() netsim.LinkConfig {
	return netsim.LinkConfig{Gbps: 10, Latency: 5 * time.Microsecond}
}

func lossyLink(p float64, seed int64) netsim.LinkConfig {
	return netsim.LinkConfig{
		Gbps:    10,
		Latency: 5 * time.Microsecond,
		AtoB:    netsim.FaultConfig{LossProb: p, Seed: seed},
	}
}

func payload(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestSoftwareOnly(t *testing.T) {
	data := payload(200<<10, 1)
	r := runTransfer(t, cleanLink(), data, false, false, false, 5*time.Second)
	if r.srvConn.Stats.RxUnoffloaded != r.srvConn.Stats.RecordsRx {
		t.Errorf("all records should be software-processed: %+v", r.srvConn.Stats)
	}
	if r.w.srvLedger.HostOpCycles(cycles.Decrypt) == 0 {
		t.Error("server charged no decrypt cycles")
	}
	if r.w.cliLedger.HostOpCycles(cycles.Encrypt) == 0 {
		t.Error("client charged no encrypt cycles")
	}
}

func TestFullOffloadCleanLink(t *testing.T) {
	data := payload(200<<10, 2)
	r := runTransfer(t, cleanLink(), data, true, true, false, 5*time.Second)
	st := r.srvConn.Stats
	if st.RxFullyOffloaded != st.RecordsRx || st.RecordsRx == 0 {
		t.Errorf("expected all records fully offloaded: %+v", st)
	}
	// Host-side crypto must be entirely gone; the NIC did the work.
	if got := r.w.srvLedger.HostOpCycles(cycles.Decrypt); got != 0 {
		t.Errorf("server host decrypt cycles = %v, want 0", got)
	}
	if got := r.w.cliLedger.HostOpCycles(cycles.Encrypt); got != 0 {
		t.Errorf("client host encrypt cycles = %v, want 0", got)
	}
	if r.w.cliLedger.Get(cycles.NIC, cycles.Encrypt).Cycles == 0 {
		t.Error("client NIC charged no encrypt work")
	}
	if r.w.srvLedger.Get(cycles.NIC, cycles.Decrypt).Cycles == 0 {
		t.Error("server NIC charged no decrypt work")
	}
}

func TestTxOffloadOnlyIsWireCompatible(t *testing.T) {
	// NIC-encrypted records must be decryptable by a pure-software peer:
	// the offload is invisible on the wire (§3.1).
	data := payload(150<<10, 3)
	r := runTransfer(t, cleanLink(), data, true, false, false, 5*time.Second)
	if r.srvConn.Stats.RxUnoffloaded != r.srvConn.Stats.RecordsRx {
		t.Errorf("server should be all-software: %+v", r.srvConn.Stats)
	}
}

func TestRxOffloadOnly(t *testing.T) {
	data := payload(150<<10, 4)
	r := runTransfer(t, cleanLink(), data, false, true, false, 5*time.Second)
	if r.srvConn.Stats.RxFullyOffloaded == 0 {
		t.Errorf("no records offloaded: %+v", r.srvConn.Stats)
	}
}

func TestZeroCopySkipsCopyCycles(t *testing.T) {
	data := payload(100<<10, 5)
	r1 := runTransfer(t, cleanLink(), data, true, true, false, 5*time.Second)
	copyCost1 := r1.w.cliLedger.Get(cycles.HostL5P, cycles.Copy).Cycles
	r2 := runTransfer(t, cleanLink(), data, true, true, true, 5*time.Second)
	copyCost2 := r2.w.cliLedger.Get(cycles.HostL5P, cycles.Copy).Cycles
	if copyCost1 == 0 {
		t.Error("non-zc offload should charge copy cycles")
	}
	if copyCost2 != 0 {
		t.Errorf("zero-copy offload charged %v copy cycles", copyCost2)
	}
}

func TestOffloadUnderLoss(t *testing.T) {
	data := payload(400<<10, 6)
	r := runTransfer(t, lossyLink(0.03, 7), data, true, true, false, 60*time.Second)
	st := r.srvConn.Stats
	t.Logf("loss stats: %+v, engine: %+v", st, r.srvConn.RxEngine().Stats)
	if st.RxFullyOffloaded == 0 {
		t.Error("no record fully offloaded under 3% loss")
	}
	if st.RxPartial+st.RxUnoffloaded == 0 {
		t.Error("loss produced no fallback records — suspicious")
	}
	eng := r.srvConn.RxEngine().Stats
	if eng.Relocks+eng.ResyncConfirms == 0 {
		t.Error("engine never recovered context under loss")
	}
	if st.ReencryptBytes == 0 && st.RxPartial > 0 {
		t.Error("partial records must pay re-encryption (§5.2)")
	}
}

func TestOffloadUnderReordering(t *testing.T) {
	data := payload(400<<10, 8)
	cfg := netsim.LinkConfig{
		Gbps:    10,
		Latency: 5 * time.Microsecond,
		AtoB:    netsim.FaultConfig{ReorderProb: 0.03, Seed: 9},
	}
	r := runTransfer(t, cfg, data, true, true, false, 60*time.Second)
	st := r.srvConn.Stats
	t.Logf("reorder stats: %+v, engine: %+v", st, r.srvConn.RxEngine().Stats)
	if st.RxFullyOffloaded == 0 {
		t.Error("no record fully offloaded under reordering")
	}
}

func TestOffloadUnderLossBothDirections(t *testing.T) {
	// ACK loss triggers transmit retransmissions → TX context recovery.
	data := payload(300<<10, 10)
	cfg := netsim.LinkConfig{
		Gbps:    10,
		Latency: 5 * time.Microsecond,
		AtoB:    netsim.FaultConfig{LossProb: 0.02, Seed: 11},
		BtoA:    netsim.FaultConfig{LossProb: 0.02, Seed: 12},
	}
	r := runTransfer(t, cfg, data, true, true, false, 120*time.Second)
	tx := r.cliConn.TxEngine().Stats
	t.Logf("tx engine: %+v", tx)
	if tx.Recoveries == 0 {
		t.Error("expected transmit context recoveries under ACK loss")
	}
	if tx.RecoveryDMABytes == 0 {
		t.Error("recoveries should DMA-read record prefixes (Fig. 6)")
	}
	if r.w.cliLedger.PCIeBytes(cycles.CtxDMA) == 0 {
		t.Error("PCIe ledger missing context-recovery traffic (Fig. 16b)")
	}
}

func TestTransparencyProperty(t *testing.T) {
	// The paper's core claim: offloading is invisible to the application.
	// For identical fault seeds, the delivered plaintext must be identical
	// with and without offloads. (TCP dynamics differ slightly because
	// offload does not change packet sizes — same stream either way.)
	if testing.Short() {
		t.Skip("long property test")
	}
	for seed := int64(0); seed < 6; seed++ {
		data := payload(256<<10, 100+seed)
		cfg := netsim.LinkConfig{
			Gbps:    10,
			Latency: 5 * time.Microsecond,
			AtoB: netsim.FaultConfig{LossProb: 0.02, ReorderProb: 0.02,
				DupProb: 0.01, Seed: seed},
		}
		sw := runTransfer(t, cfg, data, false, false, false, 120*time.Second)
		hw := runTransfer(t, cfg, data, true, true, false, 120*time.Second)
		if !bytes.Equal(sw.received.Bytes(), hw.received.Bytes()) {
			t.Fatalf("seed %d: offloaded and software runs delivered different data", seed)
		}
	}
}

func TestRecordsSurviveHugeWrites(t *testing.T) {
	// Writes larger than the socket buffer must frame correctly via OnDrain.
	data := payload(6<<20, 13)
	r := runTransfer(t, cleanLink(), data, true, true, false, 30*time.Second)
	if r.srvConn.Stats.RecordsRx == 0 {
		t.Fatal("no records received")
	}
}

// TestDisableRxOffloadDropsPendingResync: a resync request the NIC made
// before its engine was detached is gone with the engine: the records that
// follow are neither charged for an answer nor counted as one.
func TestDisableRxOffloadDropsPendingResync(t *testing.T) {
	w := newWorld(cleanLink())
	cliCfg, srvCfg := testCfgPair()
	var srv, cli *Conn
	received := 0
	w.srvStack.Listen(443, func(s *tcpip.Socket) {
		srv, _ = NewConn(s, srvCfg)
		if err := srv.EnableRxOffload(w.srvNIC); err != nil {
			t.Fatal(err)
		}
		srv.OnPlain = func(pc PlainChunk) { received += len(pc.Data) }
		srv.OnError = func(err error) { t.Fatalf("server record error: %v", err) }
	})
	w.cliStack.Connect(wire.Addr{IP: w.srvStack.IP(), Port: 443}, func(s *tcpip.Socket) {
		cli, _ = NewConn(s, cliCfg)
	})
	w.sim.RunUntil(time.Millisecond)
	data := payload(3*MaxPlaintext, 5)
	if n := cli.Write(data); n != len(data) {
		t.Fatalf("wrote %d of %d bytes", n, len(data))
	}
	w.sim.RunUntil(10 * time.Millisecond)
	if received != len(data) {
		t.Fatalf("phase 1: received %d of %d bytes", received, len(data))
	}

	// The old engine's last act: a guess at exactly the next record's start.
	srv.resync.Request(srv.Socket().ReadSeq())
	srv.DisableRxOffload()
	before := w.srvLedger.Get(cycles.HostL5P, cycles.Driver)
	cli.Write(data)
	w.sim.RunUntil(20 * time.Millisecond)
	if received != 2*len(data) {
		t.Fatalf("phase 2: received %d of %d bytes", received, 2*len(data))
	}
	if srv.Stats.ResyncResponses != 0 {
		t.Errorf("%d resync responses to a request from a detached engine", srv.Stats.ResyncResponses)
	}
	if after := w.srvLedger.Get(cycles.HostL5P, cycles.Driver); after != before {
		t.Errorf("response upcall charged: %+v -> %+v", before, after)
	}
}

// TestRecordBuffersRecycled: a long offloaded transfer builds its records
// in the socket's send ring, and the retainer hands the ring back record by
// record as they are acknowledged: all but the last send window's worth
// (256 full records fit the socket's 4 MiB, and at most a quarter of that
// more is acknowledged between writes) has been released, and poisoned,
// by the end.
func TestRecordBuffersRecycled(t *testing.T) {
	const size = 16 << 20
	r := runTransfer(t, cleanLink(), payload(size, 14), true, true, false, 30*time.Second)
	if r.ring.poisoned < size-5<<20 {
		t.Errorf("the retainer released %d bytes of a %d-byte transfer", r.ring.poisoned, size)
	}
}

// TestConnSizeClass: a Conn is one allocation per connection, and the churn
// workload's bytes per packet see its size class.
func TestConnSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Conn{}); n > 704 {
		t.Errorf("Conn is %d bytes: past the 704-byte size class, every connection costs 64 bytes more", n)
	}
}

// TestRxContextSizeClass: the receive context (HW, ops and engine) is one
// allocation per offloaded connection in the 768-byte size class; the next
// class is 896 bytes, 128 more per connection on the churn workload.
func TestRxContextSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(rxContext{}); n > 768 {
		t.Errorf("rxContext is %d bytes: past the 768-byte size class, every offloaded connection costs 128 bytes more", n)
	}
}
