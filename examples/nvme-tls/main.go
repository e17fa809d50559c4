// NVMe-TLS: the combined offload of §5.3. The storage connection runs
// NVMe-TCP *over* kTLS; on the host's NIC the TLS receive engine decrypts
// record bodies and feeds them to a stacked NVMe engine, which verifies
// data digests and places payloads directly into block-layer buffers —
// all in one pass through the device, under packet loss.
//
// Run with: go run ./examples/nvme-tls
package main

import (
	"bytes"
	"fmt"
	"log"
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

func main() {
	sim := netsim.New()
	model := cycles.DefaultModel()
	link := netsim.NewLink(sim, netsim.LinkConfig{
		Gbps:    100,
		Latency: 2 * time.Microsecond,
		BtoA:    netsim.FaultConfig{LossProb: 0.002, Seed: 5}, // storage responses see 0.2% loss
	})

	hostLg, tgtLg := &cycles.Ledger{}, &cycles.Ledger{}
	hostStk := tcpip.NewStack(sim, [4]byte{10, 0, 0, 1}, &model, hostLg)
	tgtStk := tcpip.NewStack(sim, [4]byte{10, 0, 0, 2}, &model, tgtLg)
	hostNIC := nic.New(hostStk, link.SendAtoB, nic.Config{})
	tgtNIC := nic.New(tgtStk, link.SendBtoA, nic.Config{})
	link.AttachA(hostNIC)
	link.AttachB(tgtNIC)

	key := make([]byte, 16)
	rand.New(rand.NewSource(21)).Read(key)
	var ivA, ivB [12]byte
	ivA[0], ivB[0] = 1, 2
	hostCfg := ktls.Config{Key: key, TxIV: ivA, RxIV: ivB}
	tgtCfg := ktls.Config{Key: key, TxIV: ivB, RxIV: ivA}

	ssd := blockdev.New(sim, blockdev.Config{Latency: 80 * time.Microsecond, GBps: 2.67})
	tgtStk.Listen(4420, func(s *tcpip.Socket) {
		conn, err := ktls.NewConn(s, tgtCfg)
		if err != nil {
			log.Fatal(err)
		}
		// The target's TLS transmit is offloaded onto its own NIC.
		if err := conn.EnableTxOffload(tgtNIC, true); err != nil {
			log.Fatal(err)
		}
		nvmetcp.NewController(stream.NewTLSTransport(conn), ssd)
	})

	var host *nvmetcp.Host
	var hostConn *ktls.Conn
	hostStk.Connect(wire.Addr{IP: tgtStk.IP(), Port: 4420}, func(s *tcpip.Socket) {
		conn, err := ktls.NewConn(s, hostCfg)
		if err != nil {
			log.Fatal(err)
		}
		hostConn = conn
		if err := conn.EnableTxOffload(hostNIC, false); err != nil {
			log.Fatal(err)
		}
		if err := conn.EnableRxOffload(hostNIC); err != nil {
			log.Fatal(err)
		}
		host = nvmetcp.NewHost(stream.NewTLSTransport(conn))
		// Stack the NVMe receive engine below the TLS engine (§5.3).
		conn.SetInnerRxEngine(host.CreateSparseRxEngine(true, true))
	})
	sim.RunFor(5 * time.Millisecond)
	if host == nil {
		log.Fatal("connection failed")
	}

	// Read 2 MiB through the encrypted storage path.
	const reqBlocks = 32 // 128 KiB per request
	const requests = 32
	bufs := make([][]byte, requests)
	remaining := requests
	for i := range bufs {
		i := i
		bufs[i] = make([]byte, reqBlocks*blockdev.BlockSize)
		host.ReadBlocks(uint64(i*reqBlocks), reqBlocks, bufs[i], func(err error) {
			if err != nil {
				log.Fatalf("read %d: %v", i, err)
			}
			remaining--
		})
	}
	sim.RunFor(1 * time.Second)
	if remaining != 0 {
		log.Fatalf("%d reads incomplete", remaining)
	}
	for i, buf := range bufs {
		want := make([]byte, len(buf))
		for b := 0; b < reqBlocks; b++ {
			blockdev.Pattern(uint64(i*reqBlocks+b), 0, want[b*blockdev.BlockSize:(b+1)*blockdev.BlockSize])
		}
		if !bytes.Equal(buf, want) {
			log.Fatalf("request %d content mismatch", i)
		}
	}

	fmt.Printf("read %d MiB through NVMe-over-TLS with 0.2%% loss — data intact\n",
		requests*reqBlocks*blockdev.BlockSize>>20)
	ts := hostConn.Stats
	fmt.Printf("TLS records:  %d total — %d fully offloaded, %d partial, %d software\n",
		ts.RecordsRx, ts.RxFullyOffloaded, ts.RxPartial, ts.RxUnoffloaded)
	hs := host.Stats
	fmt.Printf("NVMe capsules: %d bytes NIC-placed, %d bytes copied in software\n",
		hs.BytesPlaced, hs.BytesCopied)
	fmt.Printf("host decrypt cycles: %.0f   host copy cycles: %.0f   host CRC cycles: %.0f\n",
		hostLg.HostOpCycles(cycles.Decrypt),
		hostLg.HostOpCycles(cycles.Copy),
		hostLg.HostOpCycles(cycles.CRC))
	fmt.Printf("stacked-engine recoveries: TLS resyncs=%d, NVMe resyncs=%d\n",
		hostConn.RxEngine().Stats.ResyncRequests+hostConn.RxEngine().Stats.Relocks,
		host.RxEngine().Stats.ResyncRequests)
}
