package experiments

import (
	"testing"
	"time"
)

// TestECNSignalChain pins the tentpole's ECN acceptance: every stage of the
// CE→ECE→CWR chain fires under CE marking, and the offload engine never
// falls back — the rate dip is a timing change, not a sequence-space one.
func TestECNSignalChain(t *testing.T) {
	f := ChaosFaults{Seed: 6002, ECN: true, CEMarkProb: 0.02}
	w, r := chaosIperf(f, IperfTLSOffload, chaosStreams, chaosWindow)
	if len(r.violations) != 0 {
		t.Fatalf("violations under ECN marking: %v", r.violations)
	}
	snd, rcv, st := w.Gen.Stack.Stats, w.Srv.Stack.Stats, w.Srv.NIC.Stats()
	marked := w.Link.StatsAtoB().CEMarked
	if marked == 0 || rcv.CEReceived == 0 || snd.ECEReceived == 0 ||
		snd.ECNCwndCuts == 0 || snd.CWRSent == 0 {
		t.Errorf("ECN chain has a dead stage: marked=%d ce=%d ece=%d cuts=%d cwr=%d",
			marked, rcv.CEReceived, snd.ECEReceived, snd.ECNCwndCuts, snd.CWRSent)
	}
	if st.RxCEMarks != rcv.CEReceived {
		t.Errorf("NIC saw %d CE marks but the stack counted %d", st.RxCEMarks, rcv.CEReceived)
	}
	if r.RxEngine.Fallbacks != 0 || st.RxFallbacks != 0 {
		t.Errorf("engine fell back under a pure ECN rate dip: eng=%d nic=%d",
			r.RxEngine.Fallbacks, st.RxFallbacks)
	}
}

// TestECNNegotiationRequired checks that marking without ECN-capable stacks
// is inert: no frame is ECT, so the link has nothing to mark and the chain
// stays dark end to end.
func TestECNNegotiationRequired(t *testing.T) {
	f := ChaosFaults{Seed: 6003, CEMarkProb: 0.05} // ECN not enabled
	w, r := chaosIperf(f, IperfTLSOffload, 4, chaosWindow)
	marked, ce, cuts := w.Link.StatsAtoB().CEMarked, w.Srv.Stack.Stats.CEReceived, w.Gen.Stack.Stats.ECNCwndCuts
	if marked != 0 || ce != 0 || cuts != 0 {
		t.Errorf("ECN chain fired without negotiation: marked=%d ce=%d cuts=%d", marked, ce, cuts)
	}
	if len(r.violations) != 0 {
		t.Errorf("violations: %v", r.violations)
	}
}

// TestMTUFlapResumesOffload pins the tentpole's §4.3 acceptance: engines
// desynchronized by loss re-lock onto boundaries cut at a *different* MSS
// than they lost sync at — at least one Resume per run, zero wrong bytes,
// and no oversized frame ever reaches the narrowed link.
func TestMTUFlapResumesOffload(t *testing.T) {
	f := ChaosFaults{Seed: 6100, ECN: true, LossProb: 0.02, CEMarkProb: 0.005,
		MTUFlaps: []MTUFlap{
			{At: 500 * time.Microsecond, MTU: 1100},
			{At: 1500 * time.Microsecond, MTU: 1500},
		}}
	w, off := chaosIperf(f, IperfTLSOffload, chaosStreams, mtuFlapWindow)
	if len(off.violations) != 0 {
		t.Fatalf("violations under MTU flaps: %v", off.violations)
	}
	if st := w.Srv.NIC.Stats(); st.RxResumes < 1 {
		t.Errorf("no engine resumed across the MTU flap: searches=%d resumes=%d",
			st.RxSearches, st.RxResumes)
	}
	if w.Gen.Stack.Stats.Resegments == 0 {
		t.Error("no transmission was re-cut at the new MSS")
	}
	if d := w.mtuDrops(); d != 0 {
		t.Errorf("%d frames were emitted at the old MSS after the shrink", d)
	}

	// The software-only ablation under the identical schedule: both paths
	// verify every delivered byte against the same pattern, so zero
	// violations on both sides is zero plaintext divergence.
	_, sw := chaosIperf(f, IperfTLS, chaosStreams, mtuFlapWindow)
	if len(sw.violations) != 0 {
		t.Fatalf("software ablation violations: %v", sw.violations)
	}
	if off.checked == 0 || sw.checked == 0 {
		t.Errorf("no verified bytes: offload=%d software=%d", off.checked, sw.checked)
	}
}

// TestMTUFlapNVMe checks the other L5P: PDU boundaries land mid-segment
// after the flap and the NVMe-TCP receive offload still never completes a
// read with wrong bytes.
func TestMTUFlapNVMe(t *testing.T) {
	f := ChaosFaults{Seed: 6200, ECN: true, LossProb: 0.01, CEMarkProb: 0.005,
		MTUFlaps: []MTUFlap{
			{At: 500 * time.Microsecond, MTU: 1100},
			{At: 2 * time.Millisecond, MTU: 1500},
		}}
	w, r := chaosFio(f, true, 8, mtuFlapWindow)
	if len(r.violations) != 0 {
		t.Fatalf("violations: %v", r.violations)
	}
	if r.Requests == 0 {
		t.Error("no read completed across the MTU flap")
	}
	if w.Tgt.Stack.Stats.Resegments == 0 {
		t.Error("target never re-cut a response at the new MSS")
	}
	if d := w.Back.StatsAtoB().MTUDrops + w.Back.StatsBtoA().MTUDrops; d != 0 {
		t.Errorf("%d oversized frames hit the narrowed backend link", d)
	}
}

// TestECNDeterminism keeps the ECN and MTU-flap machinery seeded: the same
// schedule twice renders byte-identical counters.
func TestECNDeterminism(t *testing.T) {
	g := chaosGoldenRun{"det", ChaosFaults{Seed: 7, ECN: true, CEMarkProb: 0.01,
		MTUFlaps: []MTUFlap{{At: 700 * time.Microsecond, MTU: 1200}}}, "offload", 4, chaosWindow}
	if a, b := g.render(), g.render(); a != b {
		t.Errorf("ECN+flap run not deterministic:\na=%s\nb=%s", a, b)
	}
}
