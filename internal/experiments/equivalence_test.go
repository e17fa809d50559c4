package experiments

// Randomized offload-equivalence soak (the FlexTOE/PnO-TCP style check):
// a seeded generator drives loss, reordering, ECN marking, and mid-flow MTU
// flaps through full ktls and NVMe-TCP flows, and the offloaded receive
// path must yield byte-identical plaintext to the software-only ablation
// under the identical fault schedule.
//
// The two runs diverge in timing (the offload changes per-record costs), so
// the comparison is per-connection common-prefix equality — both sides also
// verify every byte against the deterministic send pattern, which pins the
// absolute stream offsets the prefixes sit at. For NVMe the equivalence is
// through the device: every completed read, offloaded or not, is compared
// against the target device's deterministic content, so two clean runs
// returned identical PDU payloads for identical LBAs by construction.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/ktls"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/tcpip"
	"repro/internal/wire"
)

const equivSeeds = 20

// equivSchedule derives one randomized fault schedule from a seed: loss +
// reorder + CE marking + one-to-three MTU flaps inside the window.
func equivSchedule(seed int64) ChaosFaults {
	rng := rand.New(rand.NewSource(seed*104729 + 17))
	f := ChaosFaults{
		Seed:        seed,
		ECN:         true,
		SACK:        true,
		LossProb:    0.005 + 0.02*rng.Float64(),
		ReorderProb: 0.005 + 0.015*rng.Float64(),
		CEMarkProb:  0.002 + 0.01*rng.Float64(),
	}
	// Alternate the congestion controller across seeds: the controller
	// changes timing, never bytes, so equivalence must hold under both.
	if seed%2 == 0 {
		f.CC = "cubic"
	} else {
		f.CC = "newreno"
	}
	at := time.Duration(200+rng.Intn(400)) * time.Microsecond
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		f.MTUFlaps = append(f.MTUFlaps, MTUFlap{At: at, MTU: 700 + rng.Intn(9)*100})
		at += time.Duration(300+rng.Intn(600)) * time.Microsecond
	}
	return f
}

// equivTLSRun drives one seeded ktls flow and returns the exact plaintext
// each receiving connection delivered, in accept order. queues shapes the
// multi-queue arm (≤1 keeps the default). After the fault window the
// writers stop and the world drains to quiescence, so poolInUse is the
// number of leaked frames — zero unless a hot-path owner lost one.
func equivTLSRun(f ChaosFaults, mode IperfMode, streams int, dur time.Duration, queues int) (plain [][]byte, st nic.Stats, poolInUse uint64, err error) {
	// 100 Gbps like the chaos harness: a slower link builds a serializer
	// backlog during establishment, and frames delivered inside the window
	// would all predate the fault arming.
	cfg := nic.Config{CtxCacheFlows: 64}
	if queues > 1 {
		cfg.Queues = queues
	}
	w := NewPairWorld(netsim.LinkConfig{
		Gbps:    100,
		Latency: 2 * time.Microsecond,
	}, cfg)
	w.Model.MinRTOMicros = 2000
	w.Model.MaxRTOMicros = 500000
	if f.ECN {
		w.Gen.Stack.EnableECN()
		w.Srv.Stack.EnableECN()
	}
	if f.SACK {
		w.Gen.Stack.EnableSACK()
		w.Srv.Stack.EnableSACK()
	}
	if f.CC != "" {
		if cerr := w.Gen.Stack.SetCongestionControl(f.CC); cerr != nil {
			panic(cerr)
		}
		if cerr := w.Srv.Stack.SetCongestionControl(f.CC); cerr != nil {
			panic(cerr)
		}
	}

	const msgSize, recordSize = 64 << 10, 4 << 10
	cliTLS, srvTLS := TLSKeys(recordSize)
	var failure error
	var stopped bool

	w.Srv.Stack.Listen(5001, func(s *tcpip.Socket) {
		id := len(plain)
		plain = append(plain, nil)
		conn, cerr := ktls.NewConn(s, srvTLS)
		if cerr != nil {
			panic(cerr)
		}
		if mode == IperfTLSOffload {
			if cerr := conn.EnableRxOffload(w.Srv.NIC); cerr != nil {
				panic(cerr)
			}
		}
		conn.OnPlain = func(pc ktls.PlainChunk) {
			plain[id] = append(plain[id], pc.Data...)
		}
		conn.OnError = func(e error) {
			if failure == nil {
				failure = fmt.Errorf("conn %d: %w", id, e)
			}
		}
	})
	for i := 0; i < streams; i++ {
		w.Gen.Stack.Connect(wire.Addr{IP: w.Srv.Stack.IP(), Port: 5001}, func(s *tcpip.Socket) {
			off := new(uint64)
			scratch := make([]byte, msgSize)
			conn, cerr := ktls.NewConn(s, cliTLS)
			if cerr != nil {
				panic(cerr)
			}
			if mode == IperfTLSOffload {
				if cerr := conn.EnableTxOffload(w.Gen.NIC, false); cerr != nil {
					panic(cerr)
				}
			}
			pump := func(c *ktls.Conn) {
				for !stopped {
					fillPattern(scratch, *off)
					n := c.Write(scratch)
					if n <= 0 {
						break
					}
					*off += uint64(n)
				}
			}
			conn.OnDrain = pump
			pump(conn)
		})
	}

	w.Sim.RunFor(1 * time.Millisecond)
	w.Link.SetFaultsAtoB(f.linkFaults(w.Sim.Now()))
	armMTUFlaps(w.Sim, w.Sim.Now(), w.Link, f.MTUFlaps, w.Gen.Stack, w.Srv.Stack)
	w.Sim.RunFor(dur)
	// Leak barrier: stop the writers, let retransmissions and acks drain
	// until the world quiesces, then count frames still out of the pool.
	// Every drop/replace/complete path must have Put its frame by now.
	stopped = true
	for i := 0; i < 500 && !w.Sim.Quiesced(); i++ {
		w.Sim.RunFor(10 * time.Millisecond)
	}
	return plain, w.Srv.NIC.Stats(), w.Pool.InUse(), failure
}

// TestOffloadEquivalenceSoak is the soak proper: over equivSeeds randomized
// schedules, the offloaded ktls receive path and its software ablation
// deliver byte-identical plaintext, and the aggregate run demonstrably
// exercised the §4.3 resume path (Resumes > 0 across the soak).
func TestOffloadEquivalenceSoak(t *testing.T) {
	const streams = 2
	const window = 1500 * time.Microsecond
	var resumes, searches, bytesCompared uint64
	for seed := int64(1); seed <= equivSeeds; seed++ {
		f := equivSchedule(seed)
		off, offNIC, offLeak, offErr := equivTLSRun(f, IperfTLSOffload, streams, window, 1)
		sw, _, swLeak, swErr := equivTLSRun(f, IperfTLS, streams, window, 1)
		if offErr != nil {
			t.Fatalf("seed %d: offloaded run failed: %v", seed, offErr)
		}
		if swErr != nil {
			t.Fatalf("seed %d: software run failed: %v", seed, swErr)
		}
		if offLeak != 0 || swLeak != 0 {
			t.Errorf("seed %d: frame pool leak at teardown: off=%d sw=%d frames out", seed, offLeak, swLeak)
		}
		if len(off) != len(sw) {
			t.Fatalf("seed %d: %d offloaded conns vs %d software", seed, len(off), len(sw))
		}
		for id := range off {
			n := min(len(off[id]), len(sw[id]))
			if n == 0 {
				t.Errorf("seed %d conn %d: empty common prefix (off=%d sw=%d)",
					seed, id, len(off[id]), len(sw[id]))
				continue
			}
			if !bytes.Equal(off[id][:n], sw[id][:n]) {
				t.Errorf("seed %d conn %d: plaintext diverges within first %d bytes", seed, id, n)
			}
			// Both must also sit at the right absolute offsets.
			for i := 0; i < n; i++ {
				if off[id][i] != chaosByte(uint64(i)) {
					t.Errorf("seed %d conn %d: wrong byte at offset %d", seed, id, i)
					break
				}
			}
			bytesCompared += uint64(n)
		}
		resumes += offNIC.RxResumes
		searches += offNIC.RxSearches
	}
	if bytesCompared == 0 {
		t.Fatal("soak compared zero bytes")
	}
	if searches == 0 || resumes == 0 {
		t.Errorf("soak never drove the recovery path: searches=%d resumes=%d", searches, resumes)
	}
	t.Logf("soak: %d seeds, %d bytes compared, %d searches, %d resumes",
		equivSeeds, bytesCompared, searches, resumes)
}

// TestOffloadEquivalenceSoakSharded is the multi-queue arm of the soak: the
// same equivalence contract, but alternating RSS queue counts (1/2/4). Two
// extra guarantees ride along: traffic must be independent of the queue
// count — the software ablation runs at the same queue count, so any
// order-dependence in the batched path shows up as a plaintext divergence —
// and the frame pool must be empty once each world drains (gets == puts at
// teardown).
func TestOffloadEquivalenceSoakSharded(t *testing.T) {
	const streams = 2
	const window = 1500 * time.Microsecond
	queueArms := []int{1, 2, 4}
	var bytesCompared, resumes, searches uint64
	for seed := int64(1); seed <= 6; seed++ {
		queues := queueArms[int(seed)%len(queueArms)]
		f := equivSchedule(seed)
		off, offNIC, offLeak, offErr := equivTLSRun(f, IperfTLSOffload, streams, window, queues)
		sw, _, swLeak, swErr := equivTLSRun(f, IperfTLS, streams, window, queues)
		if offErr != nil {
			t.Fatalf("seed %d queues %d: offloaded run failed: %v", seed, queues, offErr)
		}
		if swErr != nil {
			t.Fatalf("seed %d queues %d: software run failed: %v", seed, queues, swErr)
		}
		if offLeak != 0 || swLeak != 0 {
			t.Errorf("seed %d queues %d: frame pool leak at teardown: off=%d sw=%d frames out",
				seed, queues, offLeak, swLeak)
		}
		if len(off) != len(sw) {
			t.Fatalf("seed %d queues %d: %d offloaded conns vs %d software", seed, queues, len(off), len(sw))
		}
		for id := range off {
			n := min(len(off[id]), len(sw[id]))
			if n == 0 {
				t.Errorf("seed %d queues %d conn %d: empty common prefix (off=%d sw=%d)",
					seed, queues, id, len(off[id]), len(sw[id]))
				continue
			}
			if !bytes.Equal(off[id][:n], sw[id][:n]) {
				t.Errorf("seed %d queues %d conn %d: plaintext diverges within first %d bytes",
					seed, queues, id, n)
			}
			for i := 0; i < n; i++ {
				if off[id][i] != chaosByte(uint64(i)) {
					t.Errorf("seed %d queues %d conn %d: wrong byte at offset %d", seed, queues, id, i)
					break
				}
			}
			bytesCompared += uint64(n)
		}
		resumes += offNIC.RxResumes
		searches += offNIC.RxSearches
	}
	if bytesCompared == 0 {
		t.Fatal("sharded soak compared zero bytes")
	}
	if searches == 0 {
		t.Error("sharded soak never drove the recovery path")
	}
	t.Logf("sharded soak: 6 seeds over queues 1/2/4, %d bytes compared, %d searches, %d resumes",
		bytesCompared, searches, resumes)
}

// TestOffloadEquivalenceNVMe runs the NVMe-TCP arm of the soak: offloaded
// and software runs under the same schedules, every completed read verified
// against the device's deterministic content (see the file comment for why
// that is PDU equivalence).
func TestOffloadEquivalenceNVMe(t *testing.T) {
	var reads uint64
	for seed := int64(1); seed <= 5; seed++ {
		f := equivSchedule(seed)
		for _, offloaded := range []bool{true, false} {
			r := RunChaosNVMe(f, offloaded, 8, 8, 4*time.Millisecond)
			if len(r.Violations) != 0 {
				t.Errorf("seed %d offloaded=%v: %v", seed, offloaded, r.Violations)
			}
			if r.ReadsOK == 0 {
				t.Errorf("seed %d offloaded=%v: no read completed", seed, offloaded)
			}
			if offloaded {
				reads += r.ReadsOK
			}
		}
	}
	if reads == 0 {
		t.Fatal("no offloaded reads completed across the soak")
	}
}
