package experiments

// ECN and mid-flow MTU scenarios: the two chaos follow-ons that move packet
// boundaries (or the sending rate) mid-flow without any byte ever being
// wrong. Both stress exactly the property §4.3 claims for autonomous
// receive offloads:
//
//   - ECN makes the sender's rate dip through a genuine CE→ECE→CWR round
//     trip instead of loss. The offload engine sees gaps in arrival *time*
//     but never in sequence space, so it must keep offloading — a fallback
//     here would be a false positive.
//
//   - An MTU flap re-segments the stream: every packet boundary after the
//     change moves, and retransmissions of data first sent at the old MSS
//     are re-cut at the new one. An engine that memorized boundaries would
//     desynchronize; the paper's design tracks sequence space and message
//     framing, so it must resume at the next message-and-packet boundary.
//
// Both tables run the same fault schedule across software and offloaded
// transports and report the full signal chain alongside throughput, so a
// regression in either the TCP response or the engine's recovery is
// visible as a counter, not just a rate.

import (
	"fmt"
	"time"
)

// ecnCEMarkRates sweeps the fraction of ECT frames the link rewrites to CE.
var ecnCEMarkRates = []float64{0, 0.005, 0.02, 0.05}

// ECNSweep runs the CE-mark sweep over tcp, tls, and offloaded tls.
func ECNSweep() *Table {
	t := &Table{
		ID:    "ecn",
		Title: "ECN marking: single-core Gbps and the CE->ECE->CWR chain",
		Columns: []string{"ce rate", "tcp", "tls", "offload", "marked", "ce",
			"ece", "cuts", "cwr", "falls", "viol"},
	}
	for _, p := range ecnCEMarkRates {
		row := []string{fmt.Sprintf("%.1f%%", p*100)}
		viol := 0
		var off *PairWorld
		for i, mode := range []IperfMode{IperfTCP, IperfTLS, IperfTLSOffload} {
			f := ChaosFaults{Seed: int64(6000 + i), ECN: true, CEMarkProb: p}
			w, r := chaosIperf(f, mode, chaosStreams, chaosWindow)
			row = append(row, f1(r.rcvGbps(&w.Model)))
			viol += len(r.violations)
			if mode == IperfTLSOffload {
				off = w
			}
		}
		snd, rcv := off.Gen.Stack.Stats, off.Srv.Stack.Stats
		t.Rows = append(t.Rows, append(row,
			fmt.Sprint(off.Link.StatsAtoB().CEMarked), fmt.Sprint(rcv.CEReceived),
			fmt.Sprint(snd.ECEReceived), fmt.Sprint(snd.ECNCwndCuts),
			fmt.Sprint(snd.CWRSent), fmt.Sprint(off.Srv.NIC.Stats().RxFallbacks),
			fmt.Sprint(viol),
		))
	}
	t.Notes = append(t.Notes,
		"marked/ce/ece/cuts/cwr trace one congestion signal end to end: link CE marks -> receiver TCP -> sender echo -> cwnd cut -> CWR answer",
		"falls stays 0: an ECN rate dip changes arrival timing, never sequence space, so the engine has nothing to resynchronize")
	return t
}

// mtuFlapSchedules names the flap patterns the scenario sweeps. Flap times
// sit inside the measurement window so the engine is mid-recovery (the
// schedule pairs them with loss) when boundaries move.
var mtuFlapSchedules = []struct {
	name  string
	flaps []MTUFlap
}{
	{"none", nil},
	{"shrink", []MTUFlap{{At: 500 * time.Microsecond, MTU: 1100}}},
	{"shrink+grow", []MTUFlap{
		{At: 500 * time.Microsecond, MTU: 1100},
		{At: 1500 * time.Microsecond, MTU: 1500},
	}},
	{"sawtooth", []MTUFlap{
		{At: 400 * time.Microsecond, MTU: 1200},
		{At: 900 * time.Microsecond, MTU: 800},
		{At: 1400 * time.Microsecond, MTU: 1500},
	}},
}

// mtuFlapWindow is longer than the chaos window: under sustained loss the
// software stream runs behind the wire, so resync confirmations — and with
// them the Resumes the scenario exists to show — lag by several RTOs.
const mtuFlapWindow = 8 * time.Millisecond

// MTUFlapSweep runs each flap schedule under loss, software vs offloaded.
func MTUFlapSweep() *Table {
	t := &Table{
		ID:    "mtuflap",
		Title: "Mid-flow MTU changes under loss: re-segmentation vs offload recovery",
		Columns: []string{"schedule", "tls", "offload", "reseg", "mtudrop",
			"searches", "resumes", "falls", "viol"},
	}
	for _, sched := range mtuFlapSchedules {
		f := ChaosFaults{Seed: 6100, ECN: true, LossProb: 0.02,
			CEMarkProb: 0.005, MTUFlaps: sched.flaps}
		swW, sw := chaosIperf(f, IperfTLS, chaosStreams, mtuFlapWindow)
		offW, off := chaosIperf(f, IperfTLSOffload, chaosStreams, mtuFlapWindow)
		st := offW.Srv.NIC.Stats()
		t.Rows = append(t.Rows, []string{
			sched.name, f1(sw.rcvGbps(&swW.Model)), f1(off.rcvGbps(&offW.Model)),
			fmt.Sprint(offW.Gen.Stack.Stats.Resegments), fmt.Sprint(offW.mtuDrops()),
			fmt.Sprint(st.RxSearches), fmt.Sprint(st.RxResumes), fmt.Sprint(st.RxFallbacks),
			fmt.Sprint(len(sw.violations) + len(off.violations)),
		})
	}
	t.Notes = append(t.Notes,
		"each flap changes the path MTU on the link and both stacks in the same instant; reseg counts transmissions re-cut at the new MSS (retransmits of old-MSS data included)",
		"mtudrop stays 0: the stack re-segments immediately, so no queued old-MSS cut ever reaches the narrower link",
		"resumes >= 1 under every flap schedule: engines that lost sync to loss re-lock onto boundaries cut at a different MSS than they lost sync at (the paper's 4.3 resume path)")
	return t
}

// mtuDrops counts the frames the link dropped as oversized, both ways.
func (w *PairWorld) mtuDrops() uint64 {
	return w.Link.StatsAtoB().MTUDrops + w.Link.StatsBtoA().MTUDrops
}

// ECN is the registered `ecn` experiment.
func ECN() []*Table { return []*Table{ECNSweep()} }

// MTUFlapScenario is the registered `mtuflap` experiment.
func MTUFlapScenario() []*Table { return []*Table{MTUFlapSweep()} }
