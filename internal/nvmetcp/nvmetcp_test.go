package nvmetcp

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/blockdev"
	"repro/internal/cycles"
	"repro/internal/ktls"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/stream"
	"repro/internal/tcpip"
	"repro/internal/wire"
)

func TestPDURoundTrip(t *testing.T) {
	f := func(cid uint16, op uint8, offset uint64, data []byte) bool {
		if len(data) > MaxDataLen {
			data = data[:MaxDataLen]
		}
		h := &Header{Type: TypeResp, CID: cid, Op: op, Offset: offset, DataLen: len(data)}
		buf := Build(h, data, false)
		layout, ok := ParseHeader(buf[:HeaderLen])
		if !ok || layout.Total != h.TotalLen() {
			return false
		}
		got := Decode(buf[:HeaderLen])
		return got.CID == cid && got.Op == op && got.Offset == offset &&
			got.DataLen == len(data) &&
			bytes.Equal(buf[HeaderLen:HeaderLen+len(data)], data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestParseHeaderRejectsCorruption(t *testing.T) {
	h := &Header{Type: TypeCmd, CID: 9, Op: OpRead, Offset: EncodeReadCmd(100, 4)}
	buf := Build(h, nil, false)
	for i := 0; i < HeaderLen; i++ {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0x80
		if _, ok := ParseHeader(mut[:HeaderLen]); ok {
			t.Errorf("corruption at header byte %d accepted", i)
		}
	}
}

func TestEncodeReadCmd(t *testing.T) {
	lba, count := DecodeReadCmd(EncodeReadCmd(0xABCDEF, 1234))
	if lba != 0xABCDEF || count != 1234 {
		t.Errorf("got lba=%#x count=%d", lba, count)
	}
}

// storageWorld wires a host machine (A) to a target machine (B) holding
// the simulated SSD.
type storageWorld struct {
	sim      *netsim.Simulator
	link     *netsim.Link
	hostStk  *tcpip.Stack
	tgtStk   *tcpip.Stack
	hostNIC  *nic.NIC
	tgtNIC   *nic.NIC
	hostLg   *cycles.Ledger
	tgtLg    *cycles.Ledger
	model    cycles.Model
	dev      *blockdev.Device
	host     *Host
	ctrl     *Controller
	hostConn *ktls.Conn
	tgtConn  *ktls.Conn
}

type storageOpts struct {
	link      netsim.LinkConfig
	overTLS   bool
	rxOffload bool // host receive copy+CRC (and TLS rx when overTLS)
	txOffload bool // host transmit digest (plain TCP only)
	tgtTxOff  bool // target transmit digest (plain TCP only)
}

func newStorageWorld(t *testing.T, o storageOpts) *storageWorld {
	t.Helper()
	w := &storageWorld{sim: netsim.New(), model: cycles.DefaultModel(),
		hostLg: &cycles.Ledger{}, tgtLg: &cycles.Ledger{}}
	w.link = netsim.NewLink(w.sim, o.link)
	w.hostStk = tcpip.NewStack(w.sim, [4]byte{10, 0, 0, 1}, &w.model, w.hostLg)
	w.tgtStk = tcpip.NewStack(w.sim, [4]byte{10, 0, 0, 2}, &w.model, w.tgtLg)
	w.hostNIC = nic.New(w.hostStk, w.link.SendAtoB, nic.Config{})
	w.tgtNIC = nic.New(w.tgtStk, w.link.SendBtoA, nic.Config{})
	w.link.AttachA(w.hostNIC)
	w.link.AttachB(w.tgtNIC)
	w.dev = blockdev.New(w.sim, blockdev.Config{Latency: 80 * time.Microsecond, GBps: 2.67})

	cliCfg, srvCfg := tlsPair()

	w.tgtStk.Listen(4420, func(s *tcpip.Socket) {
		var tr stream.Stream
		if o.overTLS {
			conn, err := ktls.NewConn(s, srvCfg)
			if err != nil {
				t.Fatal(err)
			}
			w.tgtConn = conn
			if o.rxOffload {
				// The target's receive side carries tiny commands; the
				// paper's combined offload still runs TLS both ways.
				if err := conn.EnableRxOffload(w.tgtNIC); err != nil {
					t.Fatal(err)
				}
			}
			if err := conn.EnableTxOffload(w.tgtNIC, false); err == nil {
				// Target TLS tx offload keeps its CPU out of the picture.
				_ = err
			}
			tr = stream.NewTLSTransport(conn)
		} else {
			tr = stream.NewSocketTransport(s)
		}
		w.ctrl = NewController(tr, w.dev)
		if o.tgtTxOff && !o.overTLS {
			w.ctrl.EnableTxOffload(w.tgtNIC)
		}
	})

	established := false
	w.hostStk.Connect(wire.Addr{IP: w.tgtStk.IP(), Port: 4420}, func(s *tcpip.Socket) {
		var tr stream.Stream
		if o.overTLS {
			conn, err := ktls.NewConn(s, cliCfg)
			if err != nil {
				t.Fatal(err)
			}
			w.hostConn = conn
			if err := conn.EnableTxOffload(w.hostNIC, false); err != nil {
				t.Fatal(err)
			}
			if o.rxOffload {
				if err := conn.EnableRxOffload(w.hostNIC); err != nil {
					t.Fatal(err)
				}
			}
			tr = stream.NewTLSTransport(conn)
			w.host = NewHost(tr)
			if o.rxOffload {
				// Stacked NVMe engine fed by the TLS engine (§5.3).
				conn.SetInnerRxEngine(w.host.CreateSparseRxEngine(true, true))
			}
		} else {
			tr = stream.NewSocketTransport(s)
			w.host = NewHost(tr)
			if o.rxOffload {
				w.host.EnableRxOffload(w.hostNIC, true, true)
			}
			if o.txOffload {
				w.host.EnableTxOffload(w.hostNIC)
			}
		}
		established = true
	})
	w.sim.RunUntil(10 * time.Millisecond)
	if !established || w.ctrl == nil {
		t.Fatal("storage connection failed to establish")
	}
	return w
}

func tlsPair() (cli, srv ktls.Config) {
	key := make([]byte, 16)
	rand.New(rand.NewSource(55)).Read(key)
	var ivA, ivB [12]byte
	ivA[0], ivB[0] = 1, 2
	return ktls.Config{Key: key, TxIV: ivA, RxIV: ivB},
		ktls.Config{Key: key, TxIV: ivB, RxIV: ivA}
}

func wantBlocks(lba uint64, count int) []byte {
	out := make([]byte, 0, count*blockdev.BlockSize)
	for i := 0; i < count; i++ {
		blk := make([]byte, blockdev.BlockSize)
		blockdev.Pattern(lba+uint64(i), 0, blk)
		out = append(out, blk...)
	}
	return out
}

func readBlocks(t *testing.T, w *storageWorld, lba uint64, count int) []byte {
	t.Helper()
	buf := make([]byte, count*blockdev.BlockSize)
	done := false
	w.host.ReadBlocks(lba, count, buf, func(err error) {
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		done = true
	})
	w.sim.RunUntil(w.sim.Now() + 5*time.Second)
	if !done {
		t.Fatalf("read of %d blocks at %d never completed (pending=%d)", count, lba, len(w.host.pending))
	}
	return buf
}

func TestReadSoftware(t *testing.T) {
	w := newStorageWorld(t, storageOpts{link: netsim.LinkConfig{Gbps: 100, Latency: 2 * time.Microsecond}})
	got := readBlocks(t, w, 100, 64) // 256 KiB
	if !bytes.Equal(got, wantBlocks(100, 64)) {
		t.Fatal("read data mismatch")
	}
	if w.host.Stats.BytesCopied == 0 {
		t.Error("software path should copy")
	}
	if w.host.Stats.CRCSwBytes == 0 {
		t.Error("software path should CRC")
	}
}

func TestReadWithRxOffload(t *testing.T) {
	w := newStorageWorld(t, storageOpts{
		link:      netsim.LinkConfig{Gbps: 100, Latency: 2 * time.Microsecond},
		rxOffload: true,
		tgtTxOff:  true,
	})
	got := readBlocks(t, w, 200, 64)
	if !bytes.Equal(got, wantBlocks(200, 64)) {
		t.Fatal("read data mismatch")
	}
	st := w.host.Stats
	if st.BytesPlaced == 0 {
		t.Errorf("no bytes placed by the NIC: %+v", st)
	}
	if st.BytesCopied != 0 {
		t.Errorf("clean-link offload still copied %d bytes", st.BytesCopied)
	}
	if st.CRCSwBytes != 0 {
		t.Errorf("clean-link offload still CRC'd %d bytes in software", st.CRCSwBytes)
	}
	if st.CRCSkipped == 0 {
		t.Error("no PDUs skipped software CRC")
	}
	// Host L5P copy/CRC cycles must be zero (the motivation of Fig. 2).
	if c := w.hostLg.Get(cycles.HostL5P, cycles.Copy).Cycles; c != 0 {
		t.Errorf("host charged %v copy cycles", c)
	}
}

func TestWriteSoftwareAndOffload(t *testing.T) {
	for _, off := range []bool{false, true} {
		w := newStorageWorld(t, storageOpts{
			link:      netsim.LinkConfig{Gbps: 100, Latency: 2 * time.Microsecond},
			txOffload: off,
		})
		data := make([]byte, 16*blockdev.BlockSize)
		rand.New(rand.NewSource(3)).Read(data)
		done := false
		w.host.WriteBlocks(500, data, func(err error) {
			if err != nil {
				t.Fatalf("write (offload=%v): %v", off, err)
			}
			done = true
		})
		w.sim.RunUntil(w.sim.Now() + 5*time.Second)
		if !done {
			t.Fatalf("write never completed (offload=%v)", off)
		}
		crcCycles := w.hostLg.Get(cycles.HostL5P, cycles.CRC).Cycles
		got := readBlocks(t, w, 500, 16)
		if !bytes.Equal(got, data) {
			t.Fatalf("written data mismatch (offload=%v)", off)
		}
		// The header digests always cost a little; the data digest is the
		// bulk. With offload the bulk must be gone.
		bulk := w.model.CRCCycles(len(data))
		if off && crcCycles > bulk/2 {
			t.Errorf("tx offload: host CRC cycles %v suspiciously high", crcCycles)
		}
		if !off && crcCycles < bulk {
			t.Errorf("software tx: host CRC cycles %v below data digest cost %v", crcCycles, bulk)
		}
		if w.ctrl.Stats.DigestErrors != 0 {
			t.Errorf("controller saw digest errors (offload=%v)", off)
		}
	}
}

func TestManyOutstandingReads(t *testing.T) {
	w := newStorageWorld(t, storageOpts{
		link:      netsim.LinkConfig{Gbps: 100, Latency: 2 * time.Microsecond},
		rxOffload: true,
		tgtTxOff:  true,
	})
	const depth = 32
	results := make([][]byte, depth)
	remaining := depth
	for i := 0; i < depth; i++ {
		i := i
		buf := make([]byte, 8*blockdev.BlockSize)
		results[i] = buf
		w.host.ReadBlocks(uint64(1000+8*i), 8, buf, func(err error) {
			if err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			remaining--
		})
	}
	w.sim.RunUntil(w.sim.Now() + 10*time.Second)
	if remaining != 0 {
		t.Fatalf("%d reads incomplete", remaining)
	}
	for i := 0; i < depth; i++ {
		if !bytes.Equal(results[i], wantBlocks(uint64(1000+8*i), 8)) {
			t.Fatalf("read %d data mismatch", i)
		}
	}
}

func TestReadOverTLSSoftware(t *testing.T) {
	w := newStorageWorld(t, storageOpts{
		link:    netsim.LinkConfig{Gbps: 100, Latency: 2 * time.Microsecond},
		overTLS: true,
	})
	got := readBlocks(t, w, 300, 32)
	if !bytes.Equal(got, wantBlocks(300, 32)) {
		t.Fatal("TLS-transported read mismatch")
	}
}

func TestReadOverTLSCombinedOffload(t *testing.T) {
	// NVMe-TLS (§5.3): TLS decrypt feeds the stacked NVMe engine, which
	// verifies digests and places data, all on the NIC.
	w := newStorageWorld(t, storageOpts{
		link:      netsim.LinkConfig{Gbps: 100, Latency: 2 * time.Microsecond},
		overTLS:   true,
		rxOffload: true,
	})
	got := readBlocks(t, w, 400, 64)
	if !bytes.Equal(got, wantBlocks(400, 64)) {
		t.Fatal("combined-offload read mismatch")
	}
	st := w.host.Stats
	if st.BytesPlaced == 0 {
		t.Errorf("stacked engine placed nothing: %+v", st)
	}
	if st.BytesCopied != 0 {
		t.Errorf("stacked offload still copied %d bytes", st.BytesCopied)
	}
	if st.CRCSwBytes != 0 {
		t.Errorf("stacked offload still CRC'd %d bytes", st.CRCSwBytes)
	}
	if w.hostConn.Stats.RxFullyOffloaded == 0 {
		t.Error("TLS layer reports no offloaded records")
	}
}

func TestReadWithRxOffloadUnderLoss(t *testing.T) {
	w := newStorageWorld(t, storageOpts{
		link: netsim.LinkConfig{
			Gbps:    100,
			Latency: 2 * time.Microsecond,
			BtoA:    netsim.FaultConfig{LossProb: 0.02, Seed: 77},
		},
		rxOffload: true,
		tgtTxOff:  true,
	})
	var all []byte
	for i := 0; i < 12; i++ {
		all = append(all, readBlocks(t, w, uint64(2000+64*i), 64)...)
	}
	var want []byte
	for i := 0; i < 12; i++ {
		want = append(want, wantBlocks(uint64(2000+64*i), 64)...)
	}
	if !bytes.Equal(all, want) {
		t.Fatal("data mismatch under loss")
	}
	st := w.host.Stats
	t.Logf("host stats under loss: %+v", st)
	t.Logf("rx engine: %+v", w.host.RxEngine().Stats)
	if st.BytesPlaced == 0 {
		t.Error("no placement at all under loss")
	}
	if st.BytesCopied == 0 && st.CRCSwBytes == 0 {
		t.Error("loss should force some software fallback")
	}
}

func TestCombinedOffloadUnderLoss(t *testing.T) {
	w := newStorageWorld(t, storageOpts{
		link: netsim.LinkConfig{
			Gbps:    100,
			Latency: 2 * time.Microsecond,
			BtoA:    netsim.FaultConfig{LossProb: 0.015, Seed: 78},
		},
		overTLS:   true,
		rxOffload: true,
	})
	var all, want []byte
	for i := 0; i < 10; i++ {
		all = append(all, readBlocks(t, w, uint64(4000+32*i), 32)...)
		want = append(want, wantBlocks(uint64(4000+32*i), 32)...)
	}
	if !bytes.Equal(all, want) {
		t.Fatal("combined offload corrupted data under loss")
	}
	t.Logf("tls stats: %+v", w.hostConn.Stats)
	t.Logf("host stats: %+v", w.host.Stats)
}
