package experiments

// Randomized offload-equivalence soak (the FlexTOE/PnO-TCP style check):
// a seeded generator drives loss, reordering, ECN marking, and mid-flow MTU
// flaps through full ktls and NVMe-TCP flows, and the offloaded receive
// path must yield byte-identical plaintext to the software-only ablation
// under the identical fault schedule.
//
// The two runs diverge in timing (the offload changes per-record costs), so
// the comparison is per-connection common-prefix equality: both sides'
// drivers verify every byte against the deterministic send pattern at its
// absolute stream offset, so two clean runs delivered identical plaintext
// over their common prefix by construction. For NVMe the equivalence is
// through the device: every completed read, offloaded or not, is compared
// against the target device's deterministic content, so two clean runs
// returned identical PDU payloads for identical LBAs by construction.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/nic"
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

// equivTLSRun drives one seeded ktls flow: RunIperf's driver on a
// chaosPair with queues queue pairs, a 1 ms warm-up, 64 KiB writes and
// 4 KiB records. After the fault window the writers stop and the world
// drains to quiescence, so poolInUse is the number of leaked frames — zero
// unless a hot-path owner lost one.
func equivTLSRun(f ChaosFaults, mode IperfMode, streams int, dur time.Duration, queues int) (res *IperfResult, st nic.Stats, poolInUse uint64) {
	// 100 Gbps like the chaos harness: a slower link builds a serializer
	// backlog during establishment, and frames delivered inside the window
	// would all predate the fault arming.
	w := chaosPair(f, queues)
	res = runIperf(w, mode, streams, 64<<10, 4<<10, time.Millisecond, dur)
	// Leak barrier: with the writers stopped, let retransmissions and acks
	// drain until the world quiesces, then count frames still out of the
	// pool. Every drop/replace/complete path must have Put its frame by now.
	for i := 0; i < 500 && !w.Sim.Quiesced(); i++ {
		w.Sim.RunFor(10 * time.Millisecond)
	}
	return res, w.Srv.NIC.Stats(), w.Pool.InUse()
}

// compareEquivRuns checks one seed's offloaded run against its software
// ablation and returns the bytes their connections have in common. Both
// drivers checked every delivered byte against the send pattern at its
// absolute stream offset, so with no violation on either side each
// connection's common prefix is byte-identical plaintext.
func compareEquivRuns(t *testing.T, label string, off, sw *IperfResult, offLeak, swLeak uint64) (compared uint64) {
	t.Helper()
	for _, r := range []*IperfResult{off, sw} {
		if len(r.violations) != 0 || r.connsFailed != 0 {
			t.Fatalf("%s: violations %v, %d failed connections", label, r.violations, r.connsFailed)
		}
	}
	if offLeak != 0 || swLeak != 0 {
		t.Errorf("%s: frame pool leak at teardown: off=%d sw=%d frames out", label, offLeak, swLeak)
	}
	if len(off.rcv) != len(sw.rcv) {
		t.Fatalf("%s: %d offloaded conns vs %d software", label, len(off.rcv), len(sw.rcv))
	}
	for id := range off.rcv {
		n := min(off.rcv[id].off, sw.rcv[id].off)
		if n == 0 {
			t.Errorf("%s conn %d: empty common prefix (off=%d sw=%d)",
				label, id, off.rcv[id].off, sw.rcv[id].off)
		}
		compared += n
	}
	return compared
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
		off, offNIC, offLeak := equivTLSRun(f, IperfTLSOffload, streams, window, 1)
		sw, _, swLeak := equivTLSRun(f, IperfTLS, streams, window, 1)
		bytesCompared += compareEquivRuns(t, fmt.Sprintf("seed %d", seed), off, sw, offLeak, swLeak)
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
		off, offNIC, offLeak := equivTLSRun(f, IperfTLSOffload, streams, window, queues)
		sw, _, swLeak := equivTLSRun(f, IperfTLS, streams, window, queues)
		bytesCompared += compareEquivRuns(t, fmt.Sprintf("seed %d queues %d", seed, queues),
			off, sw, offLeak, swLeak)
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
			_, r := chaosFio(f, offloaded, 8, 4*time.Millisecond)
			if len(r.violations) != 0 || r.connsFailed != 0 {
				t.Errorf("seed %d offloaded=%v: violations %v, association failed: %v",
					seed, offloaded, r.violations, r.connsFailed != 0)
			}
			if r.Requests == 0 {
				t.Errorf("seed %d offloaded=%v: no read completed", seed, offloaded)
			}
			if offloaded {
				reads += r.Requests
			}
		}
	}
	if reads == 0 {
		t.Fatal("no offloaded reads completed across the soak")
	}
}
