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
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Machine is one simulated host: stack, NIC, and its cycle ledger.
type Machine struct {
	Stack  *tcpip.Stack
	NIC    *nic.NIC
	Ledger *cycles.Ledger

	name string // its telemetry name in the world: "gen", "srv" or "tgt"
}

// dcLink is the datacenter fabric every clean world runs on.
var dcLink = netsim.LinkConfig{Gbps: 100, Latency: 2 * time.Microsecond}

// world is the core both topologies embed: one simulator, which owns the
// frame pool every link and NIC of the world uses, one cost model every
// stack and NIC prices with, the links and machines by telemetry name, the
// telemetry system installed when the world was built, and the fault
// schedule.
type world struct {
	Sim   *netsim.Simulator
	Model cycles.Model
	Pool  *wire.FramePool // the simulator's
	Gen   *Machine        // workload generator / client
	Srv   *Machine        // device under test / server

	links     []namedLink
	machines  []*Machine
	tel       *telemetry.System // nil when telemetry is off
	telPrefix string            // the world's trace/metrics prefix, with telemetry on
	faults    *ChaosFaults      // armed by the workload driver after its warm-up, if set
}

// namedLink is a link and its telemetry name in the world.
type namedLink struct {
	*netsim.Link
	name string
}

// newWorld returns an empty core on a new simulator.
func newWorld() world {
	sim := netsim.New()
	return world{Sim: sim, Model: cycles.DefaultModel(), Pool: sim.Pool()}
}

// link adds a link to the world under a telemetry name.
func (w *world) link(name string, cfg netsim.LinkConfig) *netsim.Link {
	l := netsim.NewLink(w.Sim, cfg)
	w.links = append(w.links, namedLink{l, name})
	return l
}

// machine adds host 10.0.0.ip to the world under a telemetry name; send
// puts its frames on the wire.
func (w *world) machine(name string, ip byte, send func(wire.Frame), cfg nic.Config) *Machine {
	m := &Machine{Ledger: &cycles.Ledger{}, name: name}
	m.Stack = tcpip.NewStack(w.Sim, [4]byte{10, 0, 0, ip}, &w.Model, m.Ledger)
	m.NIC = nic.New(m.Stack, send, cfg)
	w.machines = append(w.machines, m)
	return m
}

// must panics on a setup error only a harness bug can cause: the harness
// gives every setup step its own fixed keys and congestion-control names,
// and installs each offload once per connection and direction.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// newConn opens a kTLS connection over s, offloading its transmit and
// receive crypto to dev as asked. A connection that sends from kernel
// buffers (cfg.Sendfile) hands them to the NIC without a private copy.
func newConn(s *tcpip.Socket, cfg ktls.Config, dev *nic.NIC, tx, rx bool) *ktls.Conn {
	c, err := ktls.NewConn(s, cfg)
	must(err)
	if tx {
		must(c.EnableTxOffload(dev, cfg.Sendfile))
	}
	if rx {
		must(c.EnableRxOffload(dev))
	}
	return c
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

// PairWorld is two machines on one link: the iperf topology, Gen on side
// A and Srv on side B.
type PairWorld struct {
	world
	Link *netsim.Link
}

// NewPairWorld builds the two-machine topology.
func NewPairWorld(link netsim.LinkConfig, nicCfg nic.Config) *PairWorld {
	w := &PairWorld{world: newWorld()}
	w.Link = w.link("link", link)
	w.Gen = w.machine("gen", 1, w.Link.SendAtoB, nicCfg)
	w.Srv = w.machine("srv", 2, w.Link.SendBtoA, nicCfg)
	w.Link.AttachA(w.Gen.NIC)
	w.Link.AttachB(w.Srv.NIC)
	w.attachTelemetry("pair")
	return w
}

// StorageWorld is the three-machine topology of the macrobenchmarks:
// generator ↔ server ↔ storage target (which owns the simulated SSD).
// The server machine routes between its two ports by destination IP.
type StorageWorld struct {
	world
	Front  *netsim.Link // generator ↔ server
	Back   *netsim.Link // server ↔ target
	Tgt    *Machine
	Dev    *blockdev.Device
	Host   *nvmetcp.Host
	Ctrl   *nvmetcp.Controller
	SrvTLS *ktls.Conn // server-side TLS conn of the storage link, if any
}

// StorageOpts configures the storage path.
type StorageOpts struct {
	NICCfg nic.Config
	// OverTLS runs the storage connection through kTLS (NVMe-TLS, §5.3).
	// The server NIC offloads its TLS when either NVMe receive offload is
	// on: the NVMe engine runs inside the TLS one.
	OverTLS bool
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
	w := &StorageWorld{world: newWorld()}
	w.Front = w.link("front", dcLink)
	w.Back = w.link("back", dcLink)
	if o.Faults != nil {
		o.NICCfg.Chaos = o.Faults.NIC
	}
	w.Gen = w.machine("gen", 1, w.Front.SendAtoB, o.NICCfg)
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
	w.Srv = w.machine("srv", 2, route, o.NICCfg)
	w.Tgt = w.machine("tgt", 3, w.Back.SendBtoA, o.NICCfg)
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
			// The target encrypts big read responses; keep its CPU out of
			// the measurement by offloading its TLS transmit.
			tr = stream.NewTLSTransport(newConn(s, srvTLS, w.Tgt.NIC, true, false))
		} else {
			tr = stream.NewSocketTransport(s)
		}
		w.Ctrl = nvmetcp.NewController(tr, w.Dev)
		if o.TargetTxOffload && !o.OverTLS {
			w.Ctrl.EnableTxOffload(w.Tgt.NIC)
		}
	})

	nvmeOff := o.NVMePlace || o.NVMeCRC
	w.Srv.Stack.Connect(wire.Addr{IP: w.Tgt.Stack.IP(), Port: 4420}, func(s *tcpip.Socket) {
		if o.OverTLS {
			w.SrvTLS = newConn(s, cliTLS, w.Srv.NIC, nvmeOff, nvmeOff)
			w.Host = nvmetcp.NewHost(stream.NewTLSTransport(w.SrvTLS))
			if nvmeOff {
				w.SrvTLS.SetInnerRxEngine(w.Host.CreateSparseRxEngine(o.NVMePlace, o.NVMeCRC))
			}
		} else {
			w.Host = nvmetcp.NewHost(stream.NewSocketTransport(s))
			if nvmeOff {
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
	if w.tel != nil {
		w.Host.EnableTelemetry(w.tel.Trace, w.tel.Reg, w.telPrefix+".srv.nvme")
		w.Ctrl.RegisterTelemetry(w.tel.Reg, w.telPrefix+".tgt.nvme")
		w.Dev.RegisterTelemetry(w.tel.Reg, w.telPrefix+".tgt.dev")
	}
	return w
}
