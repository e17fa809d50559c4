package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/offload"
	"repro/internal/tcpip"
	"repro/internal/telemetry"
)

// chaosGoldenRun is one short faulted run of the chaos harness: the name
// it prints under and the schedule, transport and size it runs with.
type chaosGoldenRun struct {
	name    string
	f       ChaosFaults
	mode    string // an IperfMode's name, or "nvme" / "nvme-offload"
	streams int
	window  time.Duration
}

// chaosGoldenRuns covers every knob the chaos, ecn, mtuflap and recovery
// tables turn: each soak transport under seed 1's randomized schedule, CE
// marking with ECN negotiated, SACK under CUBIC, MTU flaps under loss, and
// the storage world with ECN, SACK, CUBIC and flaps together.
func chaosGoldenRuns() []chaosGoldenRun {
	const w = 2 * time.Millisecond
	return []chaosGoldenRun{
		{"soak1", ChaosSchedule(1, false), "tcp", 4, w},
		{"soak1", ChaosSchedule(1, true), "tls", 4, w},
		{"soak1", ChaosSchedule(1, true), "offload", 4, w},
		{"soak1", ChaosSchedule(1, true), "nvme", 8, w},
		{"soak1", ChaosSchedule(1, true), "nvme-offload", 8, w},
		{"ecn", ChaosFaults{Seed: 6002, ECN: true, CEMarkProb: 0.02}, "offload", 4, w},
		{"sack-cubic", recoveryFaults(0.02, true, "cubic"), "tcp", 4, 3 * time.Millisecond},
		{"mtuflap", ChaosFaults{Seed: 6100, ECN: true, LossProb: 0.02, CEMarkProb: 0.005,
			MTUFlaps: []MTUFlap{{At: 500 * time.Microsecond, MTU: 1100}, {At: 1500 * time.Microsecond, MTU: 1500}}},
			"offload", 8, w},
		{"equiv2", equivSchedule(2), "nvme-offload", 8, 3 * time.Millisecond},
	}
}

// render runs g and prints every counter the chaos, ecn, mtuflap and
// recovery tables take from such a run.
func (g chaosGoldenRun) render() string {
	// The data sender's recovery-episode durations.
	h := telemetry.NewHistogram("tcp.recovery_episode_ns")
	var (
		line     string
		eng      offload.RxStats
		st       nic.Stats
		link     netsim.DirStats // the data direction
		mtuDrops uint64
		snd, rcv *tcpip.Stack // data sender and receiver
		nvme     string
	)
	if g.mode == "nvme" || g.mode == "nvme-offload" {
		w := chaosStorage(g.f, g.mode == "nvme-offload")
		w.Tgt.Stack.SetRecoveryHistogram(h)
		r := RunFio(w, 8*blockdev.BlockSize, g.streams, g.window)
		line = fmt.Sprintf("gbps=%.3f bytes=%d window=%d viol=%d conns-failed=%d auth=0",
			r.gbps(&w.Model), r.checked, r.Bytes, len(r.violations), r.connsFailed)
		eng, st, link = w.hostRxStats(), w.Srv.NIC.Stats(), w.Back.StatsBtoA()
		mtuDrops = w.Back.StatsAtoB().MTUDrops + w.Back.StatsBtoA().MTUDrops
		snd, rcv = w.Tgt.Stack, w.Srv.Stack
		nvme = fmt.Sprintf("digest-errors=%d framing-errors=%d",
			w.Host.Stats.DigestErrors, w.Host.Stats.FramingErrors+w.Ctrl.Stats.FramingErrors)
	} else {
		mode := map[string]IperfMode{"tcp": IperfTCP, "tls": IperfTLS, "offload": IperfTLSOffload}[g.mode]
		w := chaosPair(g.f, 1)
		w.Gen.Stack.SetRecoveryHistogram(h)
		r := RunIperf(w, mode, g.streams, 256<<10, 16<<10, g.window)
		line = fmt.Sprintf("gbps=%.3f bytes=%d window=%d viol=%d conns-failed=%d auth=%d",
			r.rcvGbps(&w.Model), r.checked, r.Bytes, len(r.violations), r.connsFailed, r.TLS.AuthFailures)
		eng, st, link, mtuDrops = r.RxEngine, w.Srv.NIC.Stats(), w.Link.StatsAtoB(), w.mtuDrops()
		snd, rcv = w.Gen.Stack, w.Srv.Stack
		nvme = "digest-errors=0 framing-errors=0"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %s\n", g.name, g.mode, line)
	fmt.Fprintf(&b, "  engine falls=%d drops=%d rsdrop=%d rsrej=%d relocks=%d\n",
		eng.Fallbacks, eng.CorruptionDrops, eng.ResyncDropped, eng.ForcedRejects, eng.Relocks)
	fmt.Fprintf(&b, "  nic falls=%d drops=%d stalls=%d inval=%d searches=%d tracks=%d resumes=%d ce=%d\n",
		st.RxFallbacks, st.RxCorruptionDrops, st.RxRingStalls, st.CtxInvalidations,
		st.RxSearches, st.RxTracks, st.RxResumes, st.RxCEMarks)
	fmt.Fprintf(&b, "  ecn marked=%d ce=%d ece=%d cuts=%d cwr=%d reseg=%d mtudrop=%d\n",
		link.CEMarked, rcv.Stats.CEReceived, snd.Stats.ECEReceived, snd.Stats.ECNCwndCuts,
		snd.Stats.CWRSent, snd.Stats.Resegments, mtuDrops)
	s := snd.Stats
	fmt.Fprintf(&b, "  recovery episodes=%d rtos=%d fastrtx=%d sackblocks=%d dsacks=%d holes=%d spurious=%d undo=%d p50=%d p90=%d p99=%d\n",
		s.RecoveryEpisodes, s.Timeouts, s.FastRetransmits, s.SACKBlocksRcvd, s.DSACKsRcvd,
		s.HolesRetransmitted, s.SpuriousRTOs, s.Undos, h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99))
	fmt.Fprintf(&b, "  nvme %s\n", nvme)
	return b.String()
}

// TestChaosGolden pins, byte for byte, every counter the chaos, ecn,
// mtuflap and recovery tables print, on runs short enough for a unit test.
func TestChaosGolden(t *testing.T) {
	var got bytes.Buffer
	for _, g := range chaosGoldenRuns() {
		got.WriteString(g.render())
	}
	compareGolden(t, "chaos_golden.txt", got.Bytes())
}
