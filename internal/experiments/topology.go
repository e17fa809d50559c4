package experiments

import (
	"math/rand"
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

// Machine is one simulated host: stack, NIC, and its cycle ledger.
type Machine struct {
	Stack  *tcpip.Stack
	NIC    *nic.NIC
	Ledger *cycles.Ledger
}

// NewMachine builds a host. send transmits serialized frames onto a link.
func NewMachine(sim *netsim.Simulator, model *cycles.Model, ip byte,
	send func(wire.Frame), nicCfg nic.Config) *Machine {
	m := &Machine{Ledger: &cycles.Ledger{}}
	m.Stack = tcpip.NewStack(sim, [4]byte{10, 0, 0, ip}, model, m.Ledger)
	nicCfg.Model = model
	nicCfg.Ledger = m.Ledger
	m.NIC = nic.New(m.Stack, send, nicCfg)
	return m
}

// TLSKeys returns the matched client/server kTLS configurations every
// experiment shares (session keys substitute for the handshake).
func TLSKeys(recordSize int) (cli, srv ktls.Config) {
	key := make([]byte, 16)
	rand.New(rand.NewSource(2021)).Read(key)
	var ivA, ivB [12]byte
	ivA[0], ivB[0] = 0xA, 0xB
	cli = ktls.Config{Key: key, TxIV: ivA, RxIV: ivB, RecordSize: recordSize}
	srv = ktls.Config{Key: key, TxIV: ivB, RxIV: ivA, RecordSize: recordSize}
	return
}

// PairWorld is two machines on one link: the iperf topology.
type PairWorld struct {
	Sim   *netsim.Simulator
	Model cycles.Model
	Pool  *wire.FramePool // shared by both NICs and the link
	Link  *netsim.Link
	Gen   *Machine // workload generator / client (side A)
	Srv   *Machine // device under test / server (side B)

	faults *ChaosFaults // armed on the A→B direction by RunIperf, if set
}

// NewPairWorld builds the two-machine topology.
func NewPairWorld(link netsim.LinkConfig, nicCfg nic.Config) *PairWorld {
	w := &PairWorld{Sim: netsim.New(), Model: cycles.DefaultModel(), Pool: wire.NewFramePool()}
	w.Link = netsim.NewLink(w.Sim, link)
	w.Link.SetPool(w.Pool)
	nicCfg.Pool = w.Pool
	w.Gen = NewMachine(w.Sim, &w.Model, 1, w.Link.SendAtoB, nicCfg)
	w.Srv = NewMachine(w.Sim, &w.Model, 2, w.Link.SendBtoA, nicCfg)
	w.Link.AttachA(w.Gen.NIC)
	w.Link.AttachB(w.Srv.NIC)
	w.attachTelemetry("pair")
	return w
}

// StorageWorld is the three-machine topology of the macrobenchmarks:
// generator ↔ server ↔ storage target (which owns the simulated SSD).
// The server machine routes between its two ports by destination IP.
type StorageWorld struct {
	Sim    *netsim.Simulator
	Model  cycles.Model
	Pool   *wire.FramePool // shared by all three NICs and both links
	Front  *netsim.Link    // generator ↔ server
	Back   *netsim.Link    // server ↔ target
	Gen    *Machine
	Srv    *Machine
	Tgt    *Machine
	Dev    *blockdev.Device
	Host   *nvmetcp.Host
	Ctrl   *nvmetcp.Controller
	SrvTLS *ktls.Conn // server-side TLS conn of the storage link, if any

	telPrefix string       // trace/metrics prefix when telemetry is enabled
	faults    *ChaosFaults // armed on the target→server direction by RunFio, if set
}

// StorageOpts configures the storage path.
type StorageOpts struct {
	FrontLink netsim.LinkConfig
	BackLink  netsim.LinkConfig
	NICCfg    nic.Config
	// OverTLS runs the storage connection through kTLS (NVMe-TLS, §5.3).
	OverTLS bool
	// StorageTLSOffload offloads the storage link's TLS on the server NIC.
	StorageTLSOffload bool
	// NVMePlace and NVMeCRC enable the receive sub-offloads.
	NVMePlace, NVMeCRC bool
	// TargetTxOffload offloads the target's response data digests.
	TargetTxOffload bool
	// Faults, when set, is the world's fault schedule: its NIC faults and
	// TCP options apply from the start, a datacenter RTO range once the
	// storage connection is up, and RunFio arms its link faults and MTU
	// flaps on the read-response direction after its warm-up.
	Faults *ChaosFaults
}

// NewStorageWorld builds the topology and establishes the NVMe connection.
// It panics if establishment fails (a programming error in experiments).
func NewStorageWorld(o StorageOpts) *StorageWorld {
	if o.FrontLink.Gbps == 0 {
		o.FrontLink = netsim.LinkConfig{Gbps: 100, Latency: 2 * time.Microsecond}
	}
	if o.BackLink.Gbps == 0 {
		o.BackLink = netsim.LinkConfig{Gbps: 100, Latency: 2 * time.Microsecond}
	}
	w := &StorageWorld{Sim: netsim.New(), Model: cycles.DefaultModel(), Pool: wire.NewFramePool()}
	w.Front = netsim.NewLink(w.Sim, o.FrontLink)
	w.Back = netsim.NewLink(w.Sim, o.BackLink)
	w.Front.SetPool(w.Pool)
	w.Back.SetPool(w.Pool)
	o.NICCfg.Pool = w.Pool
	if o.Faults != nil {
		o.NICCfg.Chaos = o.Faults.NIC
	}

	w.Gen = NewMachine(w.Sim, &w.Model, 1, w.Front.SendAtoB, o.NICCfg)
	route := func(frame wire.Frame) {
		// Route by a header peek: own transmissions always carry parseable
		// headers, and the port decision needs no checksum verification.
		flow, ok := wire.PeekFlow(frame)
		if !ok {
			return
		}
		if flow.Dst.IP[3] == 1 {
			w.Front.SendBtoA(frame)
		} else {
			w.Back.SendAtoB(frame)
		}
	}
	w.Srv = NewMachine(w.Sim, &w.Model, 2, route, o.NICCfg)
	w.Tgt = NewMachine(w.Sim, &w.Model, 3, w.Back.SendBtoA, o.NICCfg)
	w.Front.AttachA(w.Gen.NIC)
	w.Front.AttachB(w.Srv.NIC)
	w.Back.AttachA(w.Srv.NIC)
	w.Back.AttachB(w.Tgt.NIC)
	if o.Faults != nil {
		o.Faults.tuneStacks(w.Gen.Stack, w.Srv.Stack, w.Tgt.Stack)
	}
	// Attach before establishment: offload engines pick up their tracer
	// when AttachRx/AttachTx run during connection setup below.
	w.attachTelemetry("storage")

	w.Dev = blockdev.New(w.Sim, blockdev.Config{Latency: 80 * time.Microsecond, GBps: w.Model.DriveGBps})

	cliTLS, srvTLS := TLSKeys(0)
	cliTLS.Sendfile = true // storage payloads live in kernel block buffers
	srvTLS.Sendfile = true
	w.Tgt.Stack.Listen(4420, func(s *tcpip.Socket) {
		var tr stream.Stream
		if o.OverTLS {
			conn, err := ktls.NewConn(s, srvTLS)
			if err != nil {
				panic(err)
			}
			// The target encrypts big read responses; keep its CPU out of
			// the measurement by offloading its TLS transmit.
			if err := conn.EnableTxOffload(w.Tgt.NIC, true); err != nil {
				panic(err)
			}
			tr = stream.NewTLSTransport(conn)
		} else {
			tr = stream.NewSocketTransport(s)
		}
		w.Ctrl = nvmetcp.NewController(tr, w.Dev)
		if o.TargetTxOffload && !o.OverTLS {
			w.Ctrl.EnableTxOffload(w.Tgt.NIC)
		}
	})

	w.Srv.Stack.Connect(wire.Addr{IP: w.Tgt.Stack.IP(), Port: 4420}, func(s *tcpip.Socket) {
		if o.OverTLS {
			conn, err := ktls.NewConn(s, cliTLS)
			if err != nil {
				panic(err)
			}
			w.SrvTLS = conn
			if o.StorageTLSOffload {
				if err := conn.EnableTxOffload(w.Srv.NIC, true); err != nil {
					panic(err)
				}
				if err := conn.EnableRxOffload(w.Srv.NIC); err != nil {
					panic(err)
				}
			}
			tr := stream.NewTLSTransport(conn)
			w.Host = nvmetcp.NewHost(tr)
			if o.NVMePlace || o.NVMeCRC {
				if !o.StorageTLSOffload {
					panic("experiments: stacked NVMe offload requires the TLS offload")
				}
				conn.SetInnerRxEngine(w.Host.CreateSparseRxEngine(o.NVMePlace, o.NVMeCRC))
			}
		} else {
			tr := stream.NewSocketTransport(s)
			w.Host = nvmetcp.NewHost(tr)
			if o.NVMePlace || o.NVMeCRC {
				w.Host.EnableRxOffload(w.Srv.NIC, o.NVMePlace, o.NVMeCRC)
			}
		}
	})
	w.Sim.RunFor(10 * time.Millisecond)
	if w.Host == nil || w.Ctrl == nil {
		panic("experiments: storage connection failed to establish")
	}
	if f := o.Faults; f != nil {
		datacenterRTO(&w.Model)
		if e := w.Host.RxEngine(); e != nil && f.RxPolicy != nil {
			e.SetFallbackPolicy(*f.RxPolicy)
		}
		w.faults = f
	}
	if tel != nil {
		w.Host.EnableTelemetry(tel.Trace, tel.Reg, w.telPrefix+".srv.nvme")
		w.Ctrl.RegisterTelemetry(tel.Reg, w.telPrefix+".tgt.nvme")
		w.Dev.RegisterTelemetry(tel.Reg, w.telPrefix+".tgt.dev")
	}
	return w
}
