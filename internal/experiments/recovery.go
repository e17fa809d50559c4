package experiments

// Loss-recovery experiment: how fast the TCP stack repairs holes with and
// without SACK, under both congestion controllers, and what that buys the
// autonomous receive offload. The paper's recovery story (§4.3, Figs. 16–18)
// is about the NIC resynchronizing after loss; this sweep quantifies the
// transport-side half of the loop — the faster the stack closes holes, the
// sooner the byte stream is contiguous again and the sooner the engine can
// re-lock onto record boundaries.

import (
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/telemetry"
)

// recoveryRates are the per-frame loss probabilities of the sweep; each is
// paired with mild reordering so multi-hole windows and SACK-style arrival
// patterns actually occur.
var recoveryRates = []float64{0.005, 0.02}

const (
	recoveryStreams = 4
	recoveryWindow  = 8 * time.Millisecond
	recoveryReorder = 0.01
)

// recoveryFaults is the shared schedule shape: independent loss plus
// Gilbert–Elliott bursts and mild reordering — no corruption, no blackouts,
// no NIC-internal faults. The bursts are what separate the strategies:
// inside a bad episode a NewReno fast retransmission is likely lost too,
// and with no SACK evidence the flow stalls until the RTO, while the
// scoreboard keeps re-driving every hole off the surviving dup-ACKs.
func recoveryFaults(loss float64, sack bool, cc string) ChaosFaults {
	return ChaosFaults{
		Seed:        9100,
		LossProb:    loss,
		ReorderProb: recoveryReorder,
		Burst: &netsim.GilbertElliott{
			PGoodBad: 0.004,
			PBadGood: 0.08,
			LossBad:  0.6,
		},
		SACK: sack,
		CC:   cc,
	}
}

// recoveryIperf runs the sweep's iperf under f and returns, besides the
// world and result, the data sender's recovery-episode durations (detection
// → cumulative ACK covering the pre-loss send frontier).
func recoveryIperf(f ChaosFaults, mode IperfMode, streams int) (*PairWorld, *IperfResult, *telemetry.Histogram) {
	w := chaosPair(f, 1)
	h := telemetry.NewHistogram("tcp.recovery_episode_ns")
	w.Gen.Stack.SetRecoveryHistogram(h)
	return w, RunIperf(w, mode, streams, 256<<10, 16<<10, recoveryWindow), h
}

func usQ(d int64) string {
	return fmt.Sprintf("%.0f", float64(d)/float64(time.Microsecond))
}

// RecoveryLatency sweeps loss rate x congestion controller x SACK over the
// TCP iperf workload, reporting throughput, how recovery was entered
// (fast retransmit vs RTO), and the episode-duration percentiles.
func RecoveryLatency() *Table {
	t := &Table{
		ID:    "recovery-latency",
		Title: "Loss recovery: episode duration and repair mode, software TCP",
		Columns: []string{"loss", "cc", "sack", "Gbps", "episodes", "rtos",
			"fastrtx", "holes", "spurious", "undo", "p50us", "p99us"},
	}
	for _, loss := range recoveryRates {
		for _, cc := range []string{"newreno", "cubic"} {
			for _, sack := range []bool{false, true} {
				w, r, h := recoveryIperf(recoveryFaults(loss, sack, cc), IperfTCP, recoveryStreams)
				st := w.Gen.Stack.Stats
				t.Rows = append(t.Rows, []string{
					fmt.Sprintf("%.1f%%", loss*100), cc, onOff(sack), f1(r.rcvGbps(&w.Model)),
					fmt.Sprint(st.RecoveryEpisodes), fmt.Sprint(st.Timeouts),
					fmt.Sprint(st.FastRetransmits), fmt.Sprint(st.HolesRetransmitted),
					fmt.Sprint(st.SpuriousRTOs), fmt.Sprint(st.Undos),
					usQ(h.Quantile(0.50)), usQ(h.Quantile(0.99)),
				})
			}
		}
	}
	t.Notes = append(t.Notes,
		"sack on: the scoreboard retransmits every hole inside one RTT of dup-ACK evidence, so episodes last ~RTTs; sack off: NewReno repairs one hole per partial-ACK round trip and multi-hole windows can need an RTO (min 2ms here)",
		"spurious/undo count RTOs proven premature by DSACK evidence and the cwnd restorations that follow")
	return t
}

// RecoveryRelock runs the same loss sweep over TLS software vs TLS offload
// and reports how the receive engine's re-lock loop fares: how often flows
// lost sync, how they regained it (deterministic re-lock vs resync round
// trip), and the resulting re-lock rate.
func RecoveryRelock() *Table {
	t := &Table{
		ID:    "recovery-relock",
		Title: "Offload re-lock under loss: SACK's effect on resynchronization",
		Columns: []string{"loss", "sack", "mode", "Gbps", "searches", "tracks",
			"resumes", "relocks", "relock%"},
	}
	for _, loss := range recoveryRates {
		for _, sack := range []bool{false, true} {
			for _, mode := range []IperfMode{IperfTLS, IperfTLSOffload} {
				w, r, _ := recoveryIperf(recoveryFaults(loss, sack, "newreno"), mode, recoveryStreams)
				st, relocks := w.Srv.NIC.Stats(), r.RxEngine.Relocks
				rate := "-"
				if desyncs := st.RxSearches + relocks; desyncs > 0 {
					rate = f1(100 * float64(st.RxResumes+relocks) / float64(desyncs))
				}
				t.Rows = append(t.Rows, []string{
					fmt.Sprintf("%.1f%%", loss*100), onOff(sack), mode.String(), f1(r.rcvGbps(&w.Model)),
					fmt.Sprint(st.RxSearches), fmt.Sprint(st.RxTracks),
					fmt.Sprint(st.RxResumes), fmt.Sprint(relocks), rate,
				})
			}
		}
	}
	t.Notes = append(t.Notes,
		"relock% = (resumes + deterministic relocks) / (searches + relocks): the share of desync episodes the engine recovered from",
		"faster transport recovery shortens the out-of-sync stretch the engine must search or track across; the offload never has to be correct about the future either way")
	return t
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// Recovery is the registered experiment.
func Recovery() []*Table {
	return []*Table{RecoveryLatency(), RecoveryRelock()}
}
