package tcpip

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/wire"
)

// TestRetransmitAfterMSSShrink is the regression test for the mid-flow MTU
// path: a retransmission of data first cut at the old MSS must be re-cut at
// the new one. The transfer runs under loss so the retransmit queue is
// non-empty when the path MTU shrinks; from that instant on, no frame the
// stack emits may exceed the new MTU — checked both at the stack's own
// transmit hook and by the link's MTU enforcement.
func TestRetransmitAfterMSSShrink(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{
		Gbps:    10,
		Latency: 5 * time.Microsecond,
		AtoB:    netsim.FaultConfig{LossProb: 0.05, Seed: 1},
	})
	const newMTU = 1100
	flapAt := 400 * time.Microsecond

	var oversized, fullBefore int
	dev := &rawDevice{stack: p.a, send: func(frame wire.Frame) {
		if len(frame) > newMTU+wire.EthernetHeaderLen {
			if p.sim.Now() > flapAt {
				oversized++
			} else {
				fullBefore++
			}
		}
		p.link.SendAtoB(frame)
	}}
	p.a.SetDevice(dev)
	p.sim.At(flapAt, func() {
		p.link.SetMTU(newMTU + wire.EthernetHeaderLen)
		p.a.SetMTU(newMTU)
		p.b.SetMTU(newMTU)
	})

	data := randBytes(1<<20, 9)
	got := transfer(t, p, data, 30*time.Second)
	if !bytes.Equal(got, data) {
		t.Fatalf("stream corrupted across the MTU shrink: got %d of %d bytes",
			len(got), len(data))
	}
	if fullBefore == 0 {
		t.Fatal("no full-size frame before the flap; the shrink hit an idle flow")
	}
	if oversized != 0 {
		t.Errorf("%d frames cut at the old MSS were emitted after the shrink", oversized)
	}
	if d := p.link.StatsAtoB().MTUDrops; d != 0 {
		t.Errorf("link dropped %d oversized frames", d)
	}
	if p.a.Stats.Retransmits == 0 {
		t.Error("no retransmission crossed the shrink; the regression is unexercised")
	}
	if p.a.Stats.Resegments == 0 {
		t.Error("sender never re-cut a transmission at the new MSS")
	}
	if p.a.Stats.MTUChanges != 1 || p.b.Stats.MTUChanges != 1 {
		t.Errorf("MTUChanges a=%d b=%d, want 1/1", p.a.Stats.MTUChanges, p.b.Stats.MTUChanges)
	}
}

// TestMSSGrowUsesNewCut checks the other direction: after the path widens,
// new transmissions use the larger MSS (frames bigger than the old limit
// appear) and the stream stays intact.
func TestMSSGrowUsesNewCut(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{Gbps: 10, Latency: 5 * time.Microsecond})
	const smallMTU, bigMTU = 900, 1500
	p.a.SetMTU(smallMTU)
	p.b.SetMTU(smallMTU)
	growAt := 300 * time.Microsecond

	var bigFrames int
	dev := &rawDevice{stack: p.a, send: func(frame wire.Frame) {
		if len(frame) > smallMTU+wire.EthernetHeaderLen {
			bigFrames++
		}
		p.link.SendAtoB(frame)
	}}
	p.a.SetDevice(dev)
	p.sim.At(growAt, func() {
		p.a.SetMTU(bigMTU)
		p.b.SetMTU(bigMTU)
	})

	data := randBytes(1<<20, 10)
	got := transfer(t, p, data, 30*time.Second)
	if !bytes.Equal(got, data) {
		t.Fatalf("stream corrupted across the MTU grow")
	}
	if bigFrames == 0 {
		t.Error("sender never used the widened MSS")
	}
}

// TestECNNegotiateAndEcho pins the stack-level ECN chain without the full
// experiment harness: CE marks on the data direction surface as CEReceived
// at the receiver, come back as ECE on ACKs, cut the sender's cwnd once per
// window, and are answered with CWR.
func TestECNNegotiateAndEcho(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{
		Gbps:    10,
		Latency: 5 * time.Microsecond,
		AtoB:    netsim.FaultConfig{CEMarkProb: 0.02, Seed: 7},
	})
	p.a.EnableECN()
	p.b.EnableECN()
	data := randBytes(1<<20, 11)
	got := transfer(t, p, data, 30*time.Second)
	if !bytes.Equal(got, data) {
		t.Fatal("stream corrupted under CE marking")
	}
	if p.b.Stats.CEReceived == 0 {
		t.Error("receiver saw no CE mark")
	}
	if p.b.Stats.ECESent == 0 || p.a.Stats.ECEReceived == 0 {
		t.Errorf("ECE echo missing: sent=%d received=%d", p.b.Stats.ECESent, p.a.Stats.ECEReceived)
	}
	if p.a.Stats.ECNCwndCuts == 0 || p.a.Stats.CWRSent == 0 {
		t.Errorf("sender did not react: cuts=%d cwr=%d", p.a.Stats.ECNCwndCuts, p.a.Stats.CWRSent)
	}
	if p.a.Stats.ECNCwndCuts > p.a.Stats.ECEReceived {
		t.Errorf("more cwnd cuts (%d) than ECE signals (%d)",
			p.a.Stats.ECNCwndCuts, p.a.Stats.ECEReceived)
	}
}

// TestECNOffRemainsInert: without negotiation on both ends no frame is ECT,
// so the marker has nothing to rewrite and the whole chain stays dark.
func TestECNOffRemainsInert(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{
		Gbps:    10,
		Latency: 5 * time.Microsecond,
		AtoB:    netsim.FaultConfig{CEMarkProb: 0.05, Seed: 8},
	})
	p.a.EnableECN() // only one side: negotiation must fail
	data := randBytes(256<<10, 12)
	got := transfer(t, p, data, 30*time.Second)
	if !bytes.Equal(got, data) {
		t.Fatal("stream corrupted")
	}
	if m := p.link.StatsAtoB().CEMarked; m != 0 {
		t.Errorf("link CE-marked %d non-ECT frames", m)
	}
	if p.b.Stats.CEReceived != 0 || p.a.Stats.ECNCwndCuts != 0 {
		t.Errorf("ECN chain fired without negotiation: ce=%d cuts=%d",
			p.b.Stats.CEReceived, p.a.Stats.ECNCwndCuts)
	}
}
