package experiments

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/offload"
	"repro/internal/telemetry"
)

// TestPatternFillAndCheck holds the copy-based pattern fill and the
// bytes.Equal check to the byte-at-a-time definition, chaosByte, over
// random offsets and lengths, lengths past one period included.
func TestPatternFillAndCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		off := uint64(rng.Int63n(1 << 40))
		n := rng.Intn(3 * patPeriod)
		buf := make([]byte, n)
		fillPattern(buf, off)
		for j, b := range buf {
			if b != chaosByte(off+uint64(j)) {
				t.Fatalf("fillPattern(len %d, off %d): byte %d = %#x, want %#x", n, off, j, b, chaosByte(off+uint64(j)))
			}
		}
		if got := patternMismatch(buf, off); got != -1 {
			t.Fatalf("patternMismatch(len %d, off %d) = %d on the pattern itself", n, off, got)
		}
		if n == 0 {
			continue
		}
		bad := rng.Intn(n)
		buf[bad] ^= byte(1 + rng.Intn(255))
		if got := patternMismatch(buf, off); got != bad {
			t.Fatalf("patternMismatch(len %d, off %d) = %d, want the flipped byte %d", n, off, got, bad)
		}
		// Bytes delivered at the wrong stream offset mismatch.
		if n > 16 && patternMismatch(buf, off+1) < 0 {
			t.Fatalf("len %d at off %d passes as the pattern at off %d", n, off, off+1)
		}
	}
}

// TestChaosDeterminism checks that a chaos run is named by its seed: the
// same schedule twice renders byte-identical counters.
func TestChaosDeterminism(t *testing.T) {
	for _, g := range []chaosGoldenRun{
		{"det", ChaosSchedule(5, true), "offload", 8, 2 * time.Millisecond},
		{"det", ChaosSchedule(5, true), "nvme-offload", 8, 2 * time.Millisecond},
	} {
		if a, b := g.render(), g.render(); a != b {
			t.Errorf("%s chaos run not deterministic:\na=%s\nb=%s", g.mode, a, b)
		}
	}
}

// TestChaosSoakInvariants runs the full randomized schedules across every
// transport and asserts the soak's two guarantees: traffic still flows, and
// not one delivered byte is wrong — whatever the fault schedule did.
func TestChaosSoakInvariants(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, r := range chaosSoakRuns(seed) {
			if len(r.violations) != 0 {
				t.Errorf("seed %d %s: invariant violations: %v", seed, r.row[1], r.violations)
			}
			if r.checked == 0 {
				t.Errorf("seed %d %s: no verified bytes delivered", seed, r.row[1])
			}
		}
	}
}

// TestChaosCorruptionDegradesGracefully checks the degradation chain under
// checksum-evading corruption: the engine positively detects the corrupt
// record, drops it, falls back to software, and the failure is visible in
// the NIC's exported counters — while the delivered bytes stay correct.
func TestChaosCorruptionDegradesGracefully(t *testing.T) {
	f := ChaosFaults{Seed: 42, CorruptProb: 0.02, Evading: true}
	w, r := chaosIperf(f, IperfTLSOffload, chaosStreams, chaosWindow)
	if len(r.violations) != 0 {
		t.Fatalf("violations under corruption: %v", r.violations)
	}
	if r.RxEngine.CorruptionDrops == 0 {
		t.Error("no engine corruption drops despite evading corruption")
	}
	if r.RxEngine.Fallbacks == 0 {
		t.Error("no engine fell back despite auth failures")
	}
	if r.TLS.AuthFailures == 0 {
		t.Error("software tag check never fired")
	}
	if st := w.Srv.NIC.Stats(); st.RxCorruptionDrops == 0 || st.RxFallbacks == 0 {
		t.Errorf("degradation not exported through nic.Stats: %+v", st)
	}
	// The corrupt records killed their connections (TLS semantics), but
	// never silently: every death is accounted.
	if r.connsFailed == 0 {
		t.Error("corrupt records should kill TLS connections")
	}
}

// TestChaosRecoveryFailureThreshold checks MaxRecoveryFailures: when the
// (faulty) NIC turns every resync confirmation into a rejection, engines
// give up after the configured number of attempts and fall back for good.
func TestChaosRecoveryFailureThreshold(t *testing.T) {
	f := ChaosFaults{
		Seed: 9,
		// Constant 3% loss through the burst channel to force resyncs.
		Burst:    &netsim.GilbertElliott{PGoodBad: 1, LossBad: 0.03},
		NIC:      &nic.ChaosConfig{Seed: 9, ResyncRejectProb: 1},
		RxPolicy: &offload.FallbackPolicy{MaxRecoveryFailures: 3},
	}
	// Under heavy loss the software stream runs megabytes behind the wire,
	// so resync responses lag the requests by several RTOs: give the run a
	// long enough window for the round trips to complete.
	_, r := chaosIperf(f, IperfTLSOffload, chaosStreams, 12*time.Millisecond)
	if len(r.violations) != 0 {
		t.Fatalf("violations: %v", r.violations)
	}
	if r.RxEngine.ForcedRejects == 0 {
		t.Fatal("chaos never forced a resync rejection")
	}
	if r.RxEngine.Fallbacks == 0 {
		t.Error("no engine tripped the recovery-failure threshold")
	}
	if r.connsFailed != 0 {
		t.Errorf("recovery fallback must not kill connections, yet %d died", r.connsFailed)
	}
}

// TestChaosOffloadNeverSlower pins the paper's degradation guarantee: under
// identical fault schedules the offloaded variant's single-core throughput
// stays at or above its software baseline (a small tolerance absorbs the
// draw-order divergence NIC chaos introduces between the two runs).
func TestChaosOffloadNeverSlower(t *testing.T) {
	f := ChaosSchedule(2, true)
	offW, off := chaosIperf(f, IperfTLSOffload, chaosStreams, chaosWindow)
	swW, sw := chaosIperf(f, IperfTLS, chaosStreams, chaosWindow)
	if o, s := off.rcvGbps(&offW.Model), sw.rcvGbps(&swW.Model); o < s*0.9 {
		t.Errorf("offload %.2f Gbps fell below software %.2f Gbps under chaos", o, s)
	}
	offNW, offN := chaosFio(f, true, 8, chaosWindow)
	swNW, swN := chaosFio(f, false, 8, chaosWindow)
	if o, s := offN.gbps(&offNW.Model), swN.gbps(&swNW.Model); o < s*0.9 {
		t.Errorf("nvme offload %.2f Gbps fell below software %.2f Gbps under chaos", o, s)
	}
}

// TestChaosCorruptionTableShape regenerates the corruption sweep and spot
// checks its shape: zero violations everywhere, no degradation at zero
// corruption, and visible degradation at the top rate.
func TestChaosCorruptionTableShape(t *testing.T) {
	tab := ChaosCorruption()
	if len(tab.Rows) != len(chaosCorruptRates) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(chaosCorruptRates))
	}
	for _, row := range tab.Rows {
		if v := row[len(row)-1]; v != "0" {
			t.Errorf("corruption rate %s: %s invariant violations", row[0], v)
		}
	}
	first, last := tab.Rows[0], tab.Rows[len(tab.Rows)-1]
	if first[4] != "0" || first[6] != "0" {
		t.Errorf("degradation counters nonzero without corruption: %v", first)
	}
	if last[5] == "0" {
		t.Errorf("no corruption drops at the top rate: %v", last)
	}
}

// TestChaosRunsFlushTelemetry: with telemetry on, a faulted world's receive
// engines account for their whole lifetime, the state each ends the run in
// included, so their time-in-state histograms cover at least every
// stream's measured window.
func TestChaosRunsFlushTelemetry(t *testing.T) {
	sys := telemetry.NewSystem(0)
	UseTelemetry(sys)
	defer UseTelemetry(nil)
	const streams = 2
	const window = time.Millisecond
	// CE marking slows the senders without moving sequence space, so the
	// engines never leave offloading: all their time is in the final state.
	chaosIperf(ChaosFaults{Seed: 3, ECN: true, CEMarkProb: 0.01}, IperfTLSOffload, streams, window)
	var total int64
	for _, state := range []string{"offloading", "searching", "tracking", "fallback"} {
		total += sys.Reg.Histogram("offload.rx.time_" + state + "_ns").Sum()
	}
	if total < streams*int64(window) {
		t.Errorf("receive engines account for %v in their states, want at least %v",
			time.Duration(total), streams*window)
	}
}
