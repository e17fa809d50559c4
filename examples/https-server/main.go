// HTTPS-server: an nginx-like file server behind a wrk-like load generator
// on a lossy 100 Gbps link, run twice — software kTLS versus the TLS NIC
// offload with zero-copy sendfile — and compared by the cycle ledgers
// (who spent what) and by the modeled single-core throughput. The load
// generator checks every response byte; the example fails on a wrong one.
//
// Run with: go run ./examples/https-server
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/appsim"
	"repro/internal/cycles"
	"repro/internal/ktls"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/tcpip"
)

func run(mode appsim.Mode) (gbps float64, lg *cycles.Ledger, bytes uint64) {
	sim := netsim.New()
	model := cycles.DefaultModel()
	link := netsim.NewLink(sim, netsim.LinkConfig{
		Gbps:    100,
		Latency: 2 * time.Microsecond,
		BtoA:    netsim.FaultConfig{LossProb: 0.005, Seed: 3}, // responses brave 0.5% loss
	})
	genLg, srvLg := &cycles.Ledger{}, &cycles.Ledger{}
	gen := tcpip.NewStack(sim, [4]byte{10, 0, 0, 1}, &model, genLg)
	srv := tcpip.NewStack(sim, [4]byte{10, 0, 0, 2}, &model, srvLg)
	genNIC := nic.New(gen, link.SendAtoB, nic.Config{Model: &model, Ledger: genLg})
	srvNIC := nic.New(srv, link.SendBtoA, nic.Config{Model: &model, Ledger: srvLg})
	link.AttachA(genNIC)
	link.AttachB(srvNIC)

	key := make([]byte, 16)
	rand.New(rand.NewSource(11)).Read(key)
	var ivA, ivB [12]byte
	ivA[0], ivB[0] = 1, 2
	cliCfg := ktls.Config{Key: key, TxIV: ivA, RxIV: ivB}
	srvCfg := ktls.Config{Key: key, TxIV: ivB, RxIV: ivA}

	appsim.NewServer(srv, appsim.ServerConfig{
		Format: appsim.HTTP,
		Mode:   mode,
		TLSCfg: srvCfg,
		Store:  appsim.PageCacheStore{},
		Dev:    srvNIC,
	})
	cl := appsim.NewClient(gen, appsim.ClientConfig{
		Format:      appsim.HTTP,
		TLS:         true,
		TLSCfg:      cliCfg,
		Server:      srv.IP(),
		Connections: 16,
		FileSize:    64 << 10,
		Objects:     8,
	})

	sim.RunFor(3 * time.Millisecond)
	before := srvLg.Clone()
	baseBytes := cl.Stats.Bytes
	sim.RunFor(3 * time.Millisecond)

	if cl.Stats.VerifyFails > 0 || cl.Stats.Errors > 0 {
		log.Fatalf("%v: %d corrupted responses, %d errors", mode, cl.Stats.VerifyFails, cl.Stats.Errors)
	}
	lg = cycles.Diff(srvLg, before)
	bytes = cl.Stats.Bytes - baseBytes
	// Modeled single-core throughput from the cycle ledger (the simulated
	// run itself is paced by request-response latency, not by the CPU).
	gbps = model.SingleCoreGbps(lg, bytes)
	return gbps, lg, bytes
}

func main() {
	swGbps, swLg, swBytes := run(appsim.ModeTLS)
	hwGbps, hwLg, hwBytes := run(appsim.ModeTLSOffloadZC)

	fmt.Println("nginx, 64 KiB files, 16 connections, 0.5% response loss")
	fmt.Printf("%-22s %14s %14s\n", "", "software kTLS", "TLS offload+zc")
	row := func(name string, a, b float64) {
		fmt.Printf("%-22s %14.2f %14.2f\n", name, a, b)
	}
	row("1-core Gbps (modeled)", swGbps, hwGbps)
	row("host cycles/byte",
		swLg.HostCycles()/float64(swBytes), hwLg.HostCycles()/float64(hwBytes))
	row("host encrypt cyc/B",
		swLg.HostOpCycles(cycles.Encrypt)/float64(swBytes),
		hwLg.HostOpCycles(cycles.Encrypt)/float64(hwBytes))
	row("NIC encrypt cyc/B",
		swLg.Get(cycles.NIC, cycles.Encrypt).Cycles/float64(swBytes),
		hwLg.Get(cycles.NIC, cycles.Encrypt).Cycles/float64(hwBytes))
	fmt.Printf("\nspeedup: %.2fx — the crypto moved from the host columns to the NIC column\n",
		hwGbps/swGbps)
}
