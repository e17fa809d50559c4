package experiments

import (
	"testing"
	"time"
)

// TestRecoverySACKBeatsRTO pins the tentpole's acceptance: under 2% loss
// with reordering, SACK-enabled recovery completes multi-hole episodes in
// round-trip time while NewReno-without-SACK needs timeouts. The two runs
// share the fault schedule, so the comparison isolates the recovery
// machinery.
func TestRecoverySACKBeatsRTO(t *testing.T) {
	const minRTO = 2 * time.Millisecond // datacenterRTO's floor
	noW, noR, _ := recoveryIperf(recoveryFaults(0.02, false, "newreno"), IperfTCP, recoveryStreams)
	sackW, sackR, sackH := recoveryIperf(recoveryFaults(0.02, true, "newreno"), IperfTCP, recoveryStreams)
	noSACK, withSACK := noW.Gen.Stack.Stats, sackW.Gen.Stack.Stats

	if len(noR.violations)+len(sackR.violations) != 0 {
		t.Fatalf("violations: %v / %v", noR.violations, sackR.violations)
	}
	if noSACK.Timeouts == 0 {
		t.Errorf("NewReno without SACK hit no RTO under 2%% loss+reorder (episodes=%d)",
			noSACK.RecoveryEpisodes)
	}
	if withSACK.HolesRetransmitted == 0 || withSACK.SACKBlocksRcvd == 0 {
		t.Errorf("SACK machinery never engaged: holes=%d blocks=%d",
			withSACK.HolesRetransmitted, withSACK.SACKBlocksRcvd)
	}
	if withSACK.RecoveryEpisodes == 0 {
		t.Fatal("no recovery episode recorded with SACK on")
	}
	// The p90 episode with SACK finishes in RTTs, far below the minimum
	// RTO — hole-directed retransmission, not timer expiry.
	if p90 := time.Duration(sackH.Quantile(0.90)); p90 >= minRTO {
		t.Errorf("SACK recovery p90 = %v, want < min RTO %v", p90, minRTO)
	}
	if withSACK.Timeouts > noSACK.Timeouts {
		t.Errorf("SACK produced more RTOs (%d) than plain NewReno (%d)",
			withSACK.Timeouts, noSACK.Timeouts)
	}
}

// TestRecoveryCubicEquivalent runs the same schedule under CUBIC: the
// congestion controller changes the rate, never the bytes, and SACK's
// recovery behaviour carries over.
func TestRecoveryCubicEquivalent(t *testing.T) {
	w, r, h := recoveryIperf(recoveryFaults(0.02, true, "cubic"), IperfTCP, recoveryStreams)
	if len(r.violations) != 0 {
		t.Fatalf("violations under cubic: %v", r.violations)
	}
	st := w.Gen.Stack.Stats
	if st.HolesRetransmitted == 0 || st.RecoveryEpisodes == 0 {
		t.Errorf("recovery never engaged under cubic: holes=%d episodes=%d",
			st.HolesRetransmitted, st.RecoveryEpisodes)
	}
	// CUBIC keeps larger flights in the air, so tail episodes merge across
	// adjacent bursts; the median still finishes in RTTs, well under the RTO.
	if p50 := time.Duration(h.Quantile(0.50)); p50 >= 2*time.Millisecond {
		t.Errorf("cubic SACK recovery p50 = %v, want < min RTO", p50)
	}
}

// TestRecoveryOffloadRelock: the offloaded receiver under the same loss
// keeps re-locking with SACK on — faster transport repair must not confuse
// the engine (stale refills are bypassed) and byte exactness holds.
func TestRecoveryOffloadRelock(t *testing.T) {
	w, r, _ := recoveryIperf(recoveryFaults(0.02, true, "newreno"), IperfTLSOffload, recoveryStreams)
	if len(r.violations) != 0 || r.connsFailed != 0 {
		t.Fatalf("violations: %v, failed connections: %d", r.violations, r.connsFailed)
	}
	st, relocks := w.Srv.NIC.Stats(), r.RxEngine.Relocks
	if st.RxSearches+relocks == 0 {
		t.Error("no desync episode under 2% loss; the re-lock loop is unexercised")
	}
	if st.RxResumes+relocks == 0 {
		t.Errorf("engine never regained sync: searches=%d resumes=%d relocks=%d",
			st.RxSearches, st.RxResumes, relocks)
	}
	if r.RxEngine.Fallbacks != 0 {
		t.Errorf("engine fell back under plain loss+reorder: %d", r.RxEngine.Fallbacks)
	}
}

// TestRecoveryDeterminism: the sweep is seeded; identical configs must
// reproduce identical recovery counters.
func TestRecoveryDeterminism(t *testing.T) {
	g := chaosGoldenRun{"det", recoveryFaults(0.02, true, "cubic"), "tcp", 2, chaosWindow}
	if a, b := g.render(), g.render(); a != b {
		t.Errorf("recovery run not deterministic:\na=%s\nb=%s", a, b)
	}
}
