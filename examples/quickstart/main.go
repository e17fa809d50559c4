// Quickstart: two simulated hosts exchange a message over kTLS with the
// autonomous TLS NIC offload on both sides, across a lossy link. The NIC
// encrypts, decrypts, and authenticates; the hosts' CPUs never touch the
// crypto; loss exercises the context-recovery machinery of §4 — and the
// plaintext still arrives intact. The report narrates what the engines
// did: in-sequence offloading, deterministic re-locks (Fig. 8b), the
// speculative search → track → confirm cycle (Fig. 8c), and transmit
// context recovery (Fig. 6).
//
// Run with: go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/cycles"
	"repro/internal/ktls"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/tcpip"
	"repro/internal/wire"
)

func main() {
	// A deterministic simulated world: one 10 Gbps link with 2% loss.
	sim := netsim.New()
	model := cycles.DefaultModel()
	link := netsim.NewLink(sim, netsim.LinkConfig{
		Gbps:    10,
		Latency: 5 * time.Microsecond,
		AtoB:    netsim.FaultConfig{LossProb: 0.02, Seed: 1},
	})

	// Two machines, each with a TCP stack and a NIC.
	aliceLg, bobLg := &cycles.Ledger{}, &cycles.Ledger{}
	alice := tcpip.NewStack(sim, [4]byte{10, 0, 0, 1}, &model, aliceLg)
	bob := tcpip.NewStack(sim, [4]byte{10, 0, 0, 2}, &model, bobLg)
	aliceNIC := nic.New(alice, link.SendAtoB, nic.Config{Model: &model, Ledger: aliceLg})
	bobNIC := nic.New(bob, link.SendBtoA, nic.Config{Model: &model, Ledger: bobLg})
	link.AttachA(aliceNIC)
	link.AttachB(bobNIC)

	// Shared TLS session secrets (the handshake is out of scope, §5.2).
	key := make([]byte, 16)
	rand.New(rand.NewSource(7)).Read(key)
	var ivA, ivB [12]byte
	ivA[0], ivB[0] = 1, 2
	cliCfg := ktls.Config{Key: key, TxIV: ivA, RxIV: ivB}
	srvCfg := ktls.Config{Key: key, TxIV: ivB, RxIV: ivA}

	message := make([]byte, 600<<10)
	rand.New(rand.NewSource(8)).Read(message)

	// Bob listens; his NIC decrypts and verifies arriving records.
	var received bytes.Buffer
	var doneAt time.Duration // virtual time the last byte arrived
	var bobConn, aliceConn *ktls.Conn
	bob.Listen(443, func(s *tcpip.Socket) {
		conn, err := ktls.NewConn(s, srvCfg)
		if err != nil {
			log.Fatal(err)
		}
		if err := conn.EnableRxOffload(bobNIC); err != nil {
			log.Fatal(err)
		}
		conn.OnPlain = func(pc ktls.PlainChunk) {
			received.Write(pc.Data)
			if received.Len() == len(message) {
				doneAt = sim.Now()
			}
		}
		conn.OnError = func(err error) { log.Fatal(err) }
		bobConn = conn
	})

	// Alice connects; her NIC encrypts outgoing records.
	alice.Connect(wire.Addr{IP: bob.IP(), Port: 443}, func(s *tcpip.Socket) {
		conn, err := ktls.NewConn(s, cliCfg)
		if err != nil {
			log.Fatal(err)
		}
		if err := conn.EnableTxOffload(aliceNIC, false); err != nil {
			log.Fatal(err)
		}
		aliceConn = conn
		remaining := message
		pump := func(c *ktls.Conn) {
			n := c.Write(remaining)
			remaining = remaining[n:]
			if len(remaining) == 0 {
				c.OnDrain = nil
			}
		}
		conn.OnDrain = pump
		pump(conn)
	})

	sim.RunUntil(5 * time.Second)

	if !bytes.Equal(received.Bytes(), message) {
		log.Fatalf("message corrupted: got %d bytes, want %d", received.Len(), len(message))
	}
	fmt.Printf("delivered %d KiB intact through a 2%%-loss link in %v of virtual time\n\n",
		received.Len()>>10, doneAt)

	e := bobConn.RxEngine().Stats
	fmt.Println("receive engine (Fig. 7 state machine):")
	fmt.Printf("  packets: %6d offloaded, %d bypassed as past, %d not offloadable\n",
		e.PktsOffloaded, e.PktsBypassed, e.PktsUnoffloaded)
	fmt.Printf("  records: %6d completed on the NIC, %d blind-resumed (check skipped)\n",
		e.MsgsCompleted, e.MsgsBlind)
	fmt.Printf("  recovery: %5d deterministic re-locks (Fig. 8b)\n", e.Relocks)
	fmt.Printf("            %5d speculative searches → %d confirmed, %d rejected, %d tracking aborts (Fig. 8c)\n",
		e.ResyncRequests, e.ResyncConfirms, e.ResyncRejects, e.TrackingAborts)

	st := bobConn.Stats
	fmt.Println("\nkTLS software view of the same records:")
	fmt.Printf("  %d records: %d fully offloaded (crypto skipped), %d partial (re-encrypt fallback), %d all-software\n",
		st.RecordsRx, st.RxFullyOffloaded, st.RxPartial, st.RxUnoffloaded)
	fmt.Printf("  software decrypted %d KiB, re-encrypted %d KiB for partial authentication\n",
		st.SwDecryptBytes>>10, st.ReencryptBytes>>10)

	txe := aliceConn.TxEngine().Stats
	fmt.Println("\ntransmit engine (Fig. 6 recovery):")
	fmt.Printf("  %d context recoveries re-read %d KiB of records over PCIe\n",
		txe.Recoveries, txe.RecoveryDMABytes>>10)

	fmt.Println("\ncrypto cycles:")
	fmt.Printf("  host — alice encrypt: %.0f, bob decrypt: %.0f (bob's remainder is the software fallback for partial records)\n",
		aliceLg.HostOpCycles(cycles.Encrypt), bobLg.HostOpCycles(cycles.Decrypt))
	fmt.Printf("  NIC  — alice NIC: %.0f, bob NIC: %.0f\n",
		aliceLg.Get(cycles.NIC, cycles.Encrypt).Cycles, bobLg.Get(cycles.NIC, cycles.Decrypt).Cycles)
}
