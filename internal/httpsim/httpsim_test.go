package httpsim

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/cycles"
	"repro/internal/ktls"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/nvmetcp"
	"repro/internal/stream"
	"repro/internal/tcpip"
	"repro/internal/wire"
)

type machine struct {
	stack  *tcpip.Stack
	nic    *nic.NIC
	ledger *cycles.Ledger
}

func newMachine(sim *netsim.Simulator, model *cycles.Model, ip byte, send func(wire.Frame)) *machine {
	m := &machine{ledger: &cycles.Ledger{}}
	m.stack = tcpip.NewStack(sim, [4]byte{10, 0, 0, ip}, model, m.ledger)
	m.nic = nic.New(m.stack, send, nic.Config{Model: model, Ledger: m.ledger})
	return m
}

func tlsPair() (cli, srv ktls.Config) {
	key := make([]byte, 16)
	rand.New(rand.NewSource(42)).Read(key)
	var ivA, ivB [12]byte
	ivA[0], ivB[0] = 3, 4
	return ktls.Config{Key: key, TxIV: ivA, RxIV: ivB},
		ktls.Config{Key: key, TxIV: ivB, RxIV: ivA}
}

// c2World is the page-cache configuration: generator ↔ server.
func c2World(t *testing.T, mode Mode) (*netsim.Simulator, *machine, *machine, *Server) {
	t.Helper()
	sim := netsim.New()
	model := cycles.DefaultModel()
	link := netsim.NewLink(sim, netsim.LinkConfig{Gbps: 100, Latency: 2 * time.Microsecond})
	gen := newMachine(sim, &model, 1, link.SendAtoB)
	srv := newMachine(sim, &model, 2, link.SendBtoA)
	link.AttachA(gen.nic)
	link.AttachB(srv.nic)
	cliCfg, srvCfg := tlsPair()
	_ = cliCfg
	server := NewServer(srv.stack, ServerConfig{
		Mode:   mode,
		TLSCfg: srvCfg,
		Store:  PageCacheStore{},
		Dev:    srv.nic,
	})
	return sim, gen, srv, server
}

func runClient(t *testing.T, sim *netsim.Simulator, gen *machine, mode Mode,
	serverIP [4]byte, conns, fileSize int, dur time.Duration) *Client {
	t.Helper()
	cliCfg, _ := tlsPair()
	port := uint16(80)
	if mode.TLS() {
		port = 443
	}
	cl := NewClient(gen.stack, ClientConfig{
		TLS:         mode.TLS(),
		TLSCfg:      cliCfg,
		Server:      wire.Addr{IP: serverIP, Port: port},
		Connections: conns,
		FileSize:    fileSize,
		Files:       4,
		Verify:      true,
	})
	sim.RunFor(dur)
	if cl.Stats.Responses == 0 {
		t.Fatalf("mode %v: no responses", mode)
	}
	if cl.Stats.VerifyFails > 0 {
		t.Fatalf("mode %v: %d corrupted responses", mode, cl.Stats.VerifyFails)
	}
	if cl.Stats.Errors > 0 {
		t.Fatalf("mode %v: %d client errors", mode, cl.Stats.Errors)
	}
	return cl
}

func TestC2AllModes(t *testing.T) {
	var encCycles [4]float64
	var copyCycles [4]float64
	for _, mode := range []Mode{ModeHTTP, ModeHTTPS, ModeHTTPSOffload, ModeHTTPSOffloadZC} {
		sim, gen, srv, server := c2World(t, mode)
		cl := runClient(t, sim, gen, mode, srv.stack.IP(), 8, 64<<10, 15*time.Millisecond)
		if server.Stats.Requests == 0 {
			t.Fatalf("mode %v: server saw no requests", mode)
		}
		if server.Stats.Errors > 0 {
			t.Fatalf("mode %v: server errors", mode)
		}
		if cl.Stats.Bytes < 512<<10 {
			t.Errorf("mode %v: only %d bytes in 15ms", mode, cl.Stats.Bytes)
		}
		encCycles[mode] = srv.ledger.HostOpCycles(cycles.Encrypt)
		copyCycles[mode] = srv.ledger.Get(cycles.HostL5P, cycles.Copy).Cycles
	}
	if encCycles[ModeHTTP] != 0 {
		t.Error("http charged encrypt cycles")
	}
	if encCycles[ModeHTTPS] == 0 {
		t.Error("https charged no encrypt cycles")
	}
	if encCycles[ModeHTTPSOffload] != 0 || encCycles[ModeHTTPSOffloadZC] != 0 {
		t.Error("offload modes charged host encrypt cycles")
	}
	if copyCycles[ModeHTTPSOffload] == 0 {
		t.Error("offload (non-zc) should charge sendfile copies")
	}
	if copyCycles[ModeHTTPSOffloadZC] != 0 {
		t.Error("offload+zc charged copy cycles")
	}
}

// c1World adds a storage target machine holding the SSD; the server's
// files live there and are fetched over NVMe-TCP.
func c1World(t *testing.T, mode Mode, nvmeOffload bool) (*netsim.Simulator, *machine, *machine, *Server, *nvmetcp.Host) {
	t.Helper()
	sim := netsim.New()
	model := cycles.DefaultModel()
	front := netsim.NewLink(sim, netsim.LinkConfig{Gbps: 100, Latency: 2 * time.Microsecond})
	back := netsim.NewLink(sim, netsim.LinkConfig{Gbps: 100, Latency: 2 * time.Microsecond})

	gen := newMachine(sim, &model, 1, front.SendAtoB)
	srv := &machine{ledger: &cycles.Ledger{}}
	srv.stack = tcpip.NewStack(sim, [4]byte{10, 0, 0, 2}, &model, srv.ledger)
	// The server machine has two ports: one facing the generator, one
	// facing the storage target (the paper's testbed uses two machines
	// with the drive on the generator; topology here is equivalent).
	srvNIC := nic.New(srv.stack, func(frame wire.Frame) {
		// Route by destination IP octet.
		pkt, err := wire.Parse(frame)
		if err != nil {
			return
		}
		if pkt.Flow.Dst.IP[3] == 1 {
			front.SendBtoA(frame)
		} else {
			back.SendAtoB(frame)
		}
	}, nic.Config{Model: &model, Ledger: srv.ledger})
	srv.nic = srvNIC
	tgt := newMachine(sim, &model, 3, back.SendBtoA)
	front.AttachA(gen.nic)
	front.AttachB(srv.nic)
	back.AttachA(srv.nic)
	back.AttachB(tgt.nic)

	dev := blockdev.New(sim, blockdev.Config{Latency: 80 * time.Microsecond, GBps: 2.67})
	tgt.stack.Listen(4420, func(s *tcpip.Socket) {
		ctrl := nvmetcp.NewController(stream.NewSocketTransport(s), dev)
		ctrl.EnableTxOffload(tgt.nic)
	})

	var host *nvmetcp.Host
	var server *Server
	srv.stack.Connect(wire.Addr{IP: tgt.stack.IP(), Port: 4420}, func(s *tcpip.Socket) {
		host = nvmetcp.NewHost(stream.NewSocketTransport(s))
		if nvmeOffload {
			host.EnableRxOffload(srv.nic)
		}
		_, srvCfg := tlsPair()
		server = NewServer(srv.stack, ServerConfig{
			Mode:   mode,
			TLSCfg: srvCfg,
			Store:  &NVMeStore{Host: host},
			Dev:    srv.nic,
		})
	})
	sim.RunFor(10 * time.Millisecond)
	if host == nil || server == nil {
		t.Fatal("storage connection failed")
	}
	return sim, gen, srv, server, host
}

func TestC1NVMeBacked(t *testing.T) {
	for _, nvmeOff := range []bool{false, true} {
		sim, gen, srv, server, host := c1World(t, ModeHTTP, nvmeOff)
		cl := runClient(t, sim, gen, ModeHTTP, srv.stack.IP(), 8, 64<<10, 20*time.Millisecond)
		if server.Stats.Requests == 0 {
			t.Fatal("no requests served")
		}
		if nvmeOff {
			if host.Stats.BytesPlaced == 0 {
				t.Error("offloaded C1: no placement")
			}
			if host.Stats.BytesCopied != 0 {
				t.Errorf("offloaded C1: copied %d bytes", host.Stats.BytesCopied)
			}
		} else {
			if host.Stats.BytesCopied == 0 {
				t.Error("software C1: no copies")
			}
		}
		_ = cl
	}
}

func TestC1CombinedModes(t *testing.T) {
	// https + NVMe offloads together (toward Fig. 14's NVMe-TLS setup).
	sim, gen, srv, server, host := c1World(t, ModeHTTPSOffloadZC, true)
	cl := runClient(t, sim, gen, ModeHTTPSOffloadZC, srv.stack.IP(), 4, 128<<10, 25*time.Millisecond)
	if server.Stats.Requests == 0 || cl.Stats.Responses == 0 {
		t.Fatal("no traffic")
	}
	if got := srv.ledger.HostOpCycles(cycles.Encrypt); got != 0 {
		t.Errorf("server host encrypt cycles = %v", got)
	}
	if host.Stats.BytesPlaced == 0 {
		t.Error("no NVMe placement")
	}
}

func TestFileContentConsistency(t *testing.T) {
	// FileContent at an offset must match the prefix read.
	whole := make([]byte, 10000)
	FileContent(3, 0, whole)
	part := make([]byte, 500)
	FileContent(3, 4096+100, part)
	if string(part) != string(whole[4096+100:4096+600]) {
		t.Error("offset content mismatch")
	}
}

// corruptOnce damages the payload of the first data frame it sees, keeping
// the checksums valid so that only the record layer can tell, and lets
// every later frame through.
func corruptOnce() netsim.FaultConfig {
	done := false
	return netsim.FaultConfig{CorruptProb: 1, Corrupter: func(rng *rand.Rand, f wire.Frame) bool {
		if done {
			return false
		}
		done = wire.CorruptPayload(rng, f)
		return done
	}}
}

// TestTLSRecordErrorIsCounted: both ends of an HTTPS connection decrypt in
// software here, and a record that fails its check kills its connection
// (TLS cannot resynchronize past it). The side that received it counts an
// error instead of panicking — the client for a corrupt response, the
// server for a corrupt request — and the other connections go on.
func TestTLSRecordErrorIsCounted(t *testing.T) {
	for _, toClient := range []bool{true, false} {
		sim := netsim.New()
		model := cycles.DefaultModel()
		cfg := netsim.LinkConfig{Gbps: 100, Latency: 2 * time.Microsecond}
		if toClient {
			cfg.BtoA = corruptOnce()
		} else {
			cfg.AtoB = corruptOnce()
		}
		link := netsim.NewLink(sim, cfg)
		gen := newMachine(sim, &model, 1, link.SendAtoB)
		srv := newMachine(sim, &model, 2, link.SendBtoA)
		link.AttachA(gen.nic)
		link.AttachB(srv.nic)
		cliCfg, srvCfg := tlsPair()
		server := NewServer(srv.stack, ServerConfig{Mode: ModeHTTPS, TLSCfg: srvCfg, Store: PageCacheStore{}})
		cl := NewClient(gen.stack, ClientConfig{TLS: true, TLSCfg: cliCfg,
			Server: wire.Addr{IP: srv.stack.IP(), Port: 443}, Connections: 2, FileSize: 16 << 10, Files: 4, Verify: true})
		sim.RunFor(5 * time.Millisecond)
		want := [2]uint64{0, 1} // client, server errors
		if toClient {
			want = [2]uint64{1, 0}
		}
		if got := [2]uint64{cl.Stats.Errors, server.Stats.Errors}; got != want || cl.Stats.VerifyFails != 0 {
			t.Errorf("corrupt record to the client=%v: client/server errors %v, want %v; %d verify failures",
				toClient, got, want, cl.Stats.VerifyFails)
		}
		if cl.Stats.Responses == 0 {
			t.Errorf("corrupt record to the client=%v: the other connection served nothing", toClient)
		}
	}
}
