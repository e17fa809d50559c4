// NVMe-read: a host machine reads blocks from a remote SSD over NVMe-TCP
// with the receive copy+CRC offload (§5.1). The NIC verifies the data
// digest of every response capsule and DMA-writes the payload directly
// into the registered block-layer buffer (Fig. 9) — the host's memcpy and
// CRC both become no-ops, which the cycle ledger shows.
//
// Run with: go run ./examples/nvme-read
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"repro/internal/blockdev"
	"repro/internal/cycles"
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
	link := netsim.NewLink(sim, netsim.LinkConfig{Gbps: 100, Latency: 2 * time.Microsecond})

	hostLg, tgtLg := &cycles.Ledger{}, &cycles.Ledger{}
	hostStk := tcpip.NewStack(sim, [4]byte{10, 0, 0, 1}, &model, hostLg)
	tgtStk := tcpip.NewStack(sim, [4]byte{10, 0, 0, 2}, &model, tgtLg)
	hostNIC := nic.New(hostStk, link.SendAtoB, nic.Config{})
	tgtNIC := nic.New(tgtStk, link.SendBtoA, nic.Config{})
	link.AttachA(hostNIC)
	link.AttachB(tgtNIC)

	// The remote SSD lives on the target machine (Optane-like envelope).
	ssd := blockdev.New(sim, blockdev.Config{Latency: 80 * time.Microsecond, GBps: 2.67})
	tgtStk.Listen(4420, func(s *tcpip.Socket) {
		ctrl := nvmetcp.NewController(stream.NewSocketTransport(s), ssd)
		ctrl.EnableTxOffload(tgtNIC) // the target's data digests are NIC-filled too
	})

	var host *nvmetcp.Host
	hostStk.Connect(wire.Addr{IP: tgtStk.IP(), Port: 4420}, func(s *tcpip.Socket) {
		host = nvmetcp.NewHost(stream.NewSocketTransport(s))
		host.EnableRxOffload(hostNIC, true, true) // direct placement and CRC
	})
	sim.RunFor(5 * time.Millisecond)
	if host == nil {
		log.Fatal("connection failed")
	}

	// Read 1 MiB (four 256 KiB requests) into block-layer buffers.
	const reqBlocks = 64 // 256 KiB
	buffers := make([][]byte, 4)
	remaining := len(buffers)
	for i := range buffers {
		i := i
		buffers[i] = make([]byte, reqBlocks*blockdev.BlockSize)
		host.ReadBlocks(uint64(i*reqBlocks), reqBlocks, buffers[i], func(err error) {
			if err != nil {
				log.Fatalf("read %d: %v", i, err)
			}
			remaining--
		})
	}
	sim.RunFor(100 * time.Millisecond)
	if remaining != 0 {
		log.Fatalf("%d reads incomplete", remaining)
	}

	// Verify against the device's deterministic content.
	for i, buf := range buffers {
		want := make([]byte, len(buf))
		for b := 0; b < reqBlocks; b++ {
			blockdev.Pattern(uint64(i*reqBlocks+b), 0, want[b*blockdev.BlockSize:(b+1)*blockdev.BlockSize])
		}
		if !bytes.Equal(buf, want) {
			log.Fatalf("buffer %d content mismatch", i)
		}
	}

	st := host.Stats
	fmt.Printf("read %d KiB across %d requests in %v of virtual time\n",
		4*reqBlocks*blockdev.BlockSize>>10, len(buffers), sim.Now().Round(time.Microsecond))
	fmt.Printf("zero-copy placement: %d bytes placed by the NIC, %d copied in software\n",
		st.BytesPlaced, st.BytesCopied)
	fmt.Printf("digest checks:       %d capsules verified by the NIC, %d bytes CRC'd in software\n",
		st.CRCSkipped, st.CRCSwBytes)
	fmt.Printf("host copy cycles:    %.0f   host CRC cycles: %.0f (beyond the tiny header digests)\n",
		hostLg.HostOpCycles(cycles.Copy),
		hostLg.HostOpCycles(cycles.CRC))
	fmt.Printf("NIC-side work:       %.0f copy+CRC cycles on the device ledger\n",
		hostLg.Get(cycles.NIC, cycles.CRC).Cycles+hostLg.Get(cycles.NIC, cycles.Copy).Cycles)
}
