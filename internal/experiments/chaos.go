package experiments

// Chaos soak: the paper's central robustness claim (§4, §6.4) is that an
// autonomous offload never has to be correct about the future — worst case
// it stops accelerating, and the flow keeps working through software. The
// fault sweeps of Figs. 16–18 probe loss and reordering; this harness
// probes the harsher end of the space: payload corruption (both the kind
// L4 checksums catch and the kind only L5 integrity checks catch), bursty
// Gilbert–Elliott loss, timed link blackouts, and NIC-internal faults
// (receive-ring stalls, context-cache wipes, lost or mangled resync
// traffic). Two invariants are asserted across every mode:
//
//  1. Byte exactness: the delivered plaintext is exactly a prefix of the
//     sent plaintext — corruption may cost throughput or kill a
//     connection, but never delivers a wrong byte.
//  2. No offload penalty: the offloaded variant's single-core throughput
//     never falls materially below its software baseline under the same
//     fault schedule.
//
// The harness has no workload driver of its own: a fault schedule is part
// of the world (chaosPair, StorageOpts.Faults), and RunIperf and RunFio —
// which check every delivered byte in every experiment against the offset
// pattern below or the device's content — arm it after their warm-up.
// Every run is named by a seed: the link fault generators and the NIC chaos
// generator derive from it and the workloads are fixed, so a chaos run is
// exactly reproducible.

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/blockdev"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/offload"
	"repro/internal/tcpip"
	"repro/internal/wire"
)

// patPeriod is a prime so the pattern never aligns with record or block
// sizes: a byte delivered at the wrong stream offset mismatches.
const patPeriod = 8191

// patTable holds the pattern twice, so patTable[p:p+n] is the pattern from
// phase p for any p < patPeriod and n <= patPeriod.
var patTable = func() []byte {
	b := make([]byte, 2*patPeriod)
	rand.New(rand.NewSource(0x5eed)).Read(b[:patPeriod])
	copy(b[patPeriod:], b)
	return b
}()

// chaosByte is the expected plaintext byte at absolute stream offset off.
func chaosByte(off uint64) byte { return patTable[off%patPeriod] }

// fillPattern writes the pattern for stream offsets off.. into dst.
func fillPattern(dst []byte, off uint64) {
	p := off % patPeriod
	for len(dst) > 0 {
		dst = dst[copy(dst, patTable[p:p+patPeriod]):]
	}
}

// patternMismatch returns the index of the first byte of data that differs
// from the pattern at stream offsets off.., or -1 if none does.
func patternMismatch(data []byte, off uint64) int {
	return periodicMismatch(data, off, patTable, patPeriod)
}

// periodicMismatch returns the index of the first byte of data that differs
// from a stream repeating every period bytes at stream offsets off.., or -1
// if none does. table holds the stream from offset 0 and runs at least one
// period further, so table[p:p+n] is the stream from phase p for any
// n <= len(table)-period.
func periodicMismatch(data []byte, off uint64, table []byte, period uint64) int {
	step := len(table) - int(period)
	for i := 0; i < len(data); i += step {
		p, n := (off+uint64(i))%period, min(len(data)-i, step)
		if bytes.Equal(data[i:i+n], table[p:p+uint64(n)]) {
			continue
		}
		for j := i; ; j++ {
			if data[j] != table[(off+uint64(j))%period] {
				return j
			}
		}
	}
	return -1
}

// ChaosFaults is one seeded fault schedule: everything a chaos run injects,
// on the wire and inside the NIC. Blackout windows are relative to the
// moment the schedule is armed (after establishment).
type ChaosFaults struct {
	Seed        int64
	CorruptProb float64
	// Evading selects checksum-repairing payload corruption (only an L5
	// integrity check can catch it) instead of the default raw bit flip
	// (which L3/L4 checksums catch and TCP repairs by retransmission).
	Evading   bool
	Burst     *netsim.GilbertElliott
	Blackouts []netsim.Blackout
	NIC       *nic.ChaosConfig
	// RxPolicy overrides the receive engines' degradation policy.
	RxPolicy *offload.FallbackPolicy

	// LossProb and ReorderProb add independent per-frame loss and
	// reordering on the data direction.
	LossProb    float64
	ReorderProb float64

	// ECN enables RFC 3168 on every stack in the world before connections
	// open; CEMarkProb makes the link rewrite that fraction of ECT frames
	// to CE, so the sender's rate dips come from genuine CWR responses.
	ECN        bool
	CEMarkProb float64

	// MTUFlaps schedules mid-flow path-MTU changes, relative to the moment
	// the schedule is armed. Each flap updates the link's enforcement and
	// every stack's segmentation MSS in the same virtual instant (a PMTUD
	// verdict, minus the lost-frame round trip).
	MTUFlaps []MTUFlap

	// SACK enables RFC 2018/2883 loss recovery on every stack in the world
	// before connections open; CC selects the congestion controller
	// ("newreno", "cubic"; empty keeps the default NewReno).
	SACK bool
	CC   string
}

// MTUFlap is one scheduled path-MTU change.
type MTUFlap struct {
	At  time.Duration // relative to fault arming
	MTU int           // new IP-level path MTU in bytes (e.g. 1500, 1100)
}

// tuneStacks gives the world's stacks f's TCP options; worlds call it
// before any connection opens.
func (f ChaosFaults) tuneStacks(stacks ...*tcpip.Stack) {
	for _, st := range stacks {
		if f.ECN {
			st.EnableECN()
		}
		if f.SACK {
			st.EnableSACK()
		}
		if f.CC != "" {
			must(st.SetCongestionControl(f.CC))
		}
	}
}

// arm starts the schedule now: set installs the link faults (blackouts
// shifted to the present) on the data direction of link, and each MTU flap
// changes link enforcement and the stacks' segmentation together, so
// re-segmentation is driven by the stacks rather than by an
// RTO-per-oversized-frame crawl. A nil schedule arms nothing.
func (f *ChaosFaults) arm(sim *netsim.Simulator, link *netsim.Link,
	set func(netsim.FaultConfig), stacks ...*tcpip.Stack) {
	if f == nil {
		return
	}
	base := sim.Now()
	fc := netsim.FaultConfig{
		Seed:        f.Seed,
		CorruptProb: f.CorruptProb,
		Burst:       f.Burst,
		LossProb:    f.LossProb,
		ReorderProb: f.ReorderProb,
		CEMarkProb:  f.CEMarkProb,
	}
	if f.Evading {
		fc.Corrupter = wire.CorruptPayload
	}
	for _, b := range f.Blackouts {
		fc.Blackouts = append(fc.Blackouts, netsim.Blackout{Start: base + b.Start, End: base + b.End})
	}
	set(fc)
	for _, fl := range f.MTUFlaps {
		sim.At(base+fl.At, func() {
			link.SetMTU(fl.MTU + wire.EthernetHeaderLen)
			for _, st := range stacks {
				st.SetMTU(fl.MTU)
			}
		})
	}
}

// chaosPair is the chaos harness's iperf world: 100 Gbps, a 64-flow context
// cache, f's NIC faults, a datacenter RTO range and f's TCP options from
// the start; RunIperf arms f's link faults and MTU flaps on the data
// direction once its warm-up ends. queues ≤ 1 keeps one queue pair.
func chaosPair(f ChaosFaults, queues int) *PairWorld {
	w := NewPairWorld(dcLink, nic.Config{Chaos: f.NIC, CtxCacheFlows: 64, Queues: queues})
	datacenterRTO(&w.Model)
	f.tuneStacks(w.Gen.Stack, w.Srv.Stack)
	w.faults = &f
	return w
}

// chaosStorage is the chaos harness's storage world; RunFio arms f on the
// target→server direction, which carries the read responses.
func chaosStorage(f ChaosFaults, offloaded bool) *StorageWorld {
	return NewStorageWorld(StorageOpts{
		NICCfg:    nic.Config{CtxCacheFlows: 64},
		NVMePlace: offloaded,
		NVMeCRC:   offloaded,
		Faults:    &f,
	})
}

// chaosFio is the chaos harness's fio run: depth reads of eight blocks.
func chaosFio(f ChaosFaults, offloaded bool, depth int, dur time.Duration) (*StorageWorld, *FioResult) {
	w := chaosStorage(f, offloaded)
	return w, RunFio(w, 8*blockdev.BlockSize, depth, dur)
}

// chaosIperf is the chaos harness's iperf run: 256 KiB writes in 16 KiB
// records.
func chaosIperf(f ChaosFaults, mode IperfMode, streams int, dur time.Duration) (*PairWorld, *IperfResult) {
	w := chaosPair(f, 1)
	return w, RunIperf(w, mode, streams, 256<<10, 16<<10, dur)
}

// ChaosSchedule derives a full randomized fault schedule from one seed.
func ChaosSchedule(seed int64, evading bool) ChaosFaults {
	rng := rand.New(rand.NewSource(seed*7919 + 3))
	f := ChaosFaults{
		Seed:        seed,
		CorruptProb: 0.001 + 0.004*rng.Float64(),
		Evading:     evading,
		Burst: &netsim.GilbertElliott{
			PGoodBad: 0.0005 + 0.001*rng.Float64(),
			PBadGood: 0.05 + 0.1*rng.Float64(),
			LossBad:  0.3 + 0.4*rng.Float64(),
		},
		NIC: &nic.ChaosConfig{
			Seed:              seed,
			CtxInvalidateProb: 0.0005,
			RxStallProb:       0.0002 + 0.0005*rng.Float64(),
			ResyncDropProb:    0.1 + 0.2*rng.Float64(),
			ResyncRejectProb:  0.1 + 0.2*rng.Float64(),
		},
		RxPolicy: &offload.FallbackPolicy{
			MaxRecoveryFailures:   8,
			FallbackOnAuthFailure: true,
		},
	}
	// One or two outages inside the measurement window.
	at := time.Duration(0)
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		at += time.Duration(200+rng.Intn(1500)) * time.Microsecond
		d := time.Duration(50+rng.Intn(150)) * time.Microsecond
		f.Blackouts = append(f.Blackouts, netsim.Blackout{Start: at, End: at + d})
		at += d
	}
	return f
}

// chaosCorruptRates sweeps per-frame corruption probabilities.
var chaosCorruptRates = []float64{0, 0.002, 0.01, 0.05}

const (
	chaosStreams = 16
	chaosWindow  = 3 * time.Millisecond
)

// ChaosCorruption reproduces the corruption sweep: sender and receiver
// under payload corruption, TCP seeing the detectable kind and the TLS
// variants the checksum-evading kind.
func ChaosCorruption() *Table {
	t := &Table{
		ID:    "chaos-corrupt",
		Title: "Sender/receiver under corruption: single-core Gbps and degradation",
		Columns: []string{"corrupt", "tcp", "offload", "tls", "falls", "drops",
			"auth", "lost conns", "viol"},
	}
	for _, p := range chaosCorruptRates {
		var gbps [3]float64
		var off []string
		viol := 0
		for i, mode := range []IperfMode{IperfTCP, IperfTLSOffload, IperfTLS} {
			f := ChaosFaults{Seed: int64(4000 + i), CorruptProb: p, Evading: mode != IperfTCP}
			w, r := chaosIperf(f, mode, chaosStreams, chaosWindow)
			gbps[i] = r.rcvGbps(&w.Model)
			viol += len(r.violations)
			if mode == IperfTLSOffload {
				st := w.Srv.NIC.Stats()
				off = []string{fmt.Sprint(st.RxFallbacks), fmt.Sprint(st.RxCorruptionDrops),
					fmt.Sprint(r.TLS.AuthFailures), fmt.Sprint(r.connsFailed)}
			}
		}
		t.Rows = append(t.Rows, append([]string{
			fmt.Sprintf("%.1f%%", p*100), f1(gbps[0]), f1(gbps[1]), f1(gbps[2])},
			append(off, fmt.Sprint(viol))...))
	}
	t.Notes = append(t.Notes,
		"tcp sees detectable corruption (L4 checksums catch it: acts as loss); tls/offload see checksum-evading corruption (only the ICV catches it: the record is rejected, the engine falls back, the connection dies)",
		"viol counts delivered-bytes invariant violations — always 0: corruption costs throughput or connections, never correctness")
	return t
}

// ChaosSoak runs the full randomized schedules across all transports.
func ChaosSoak() *Table {
	t := &Table{
		ID:    "chaos-soak",
		Title: "Chaos soak: randomized corruption x burst loss x blackout x NIC faults",
		Columns: []string{"seed", "mode", "Gbps", "MB", "falls", "drops", "stalls",
			"inval", "rsdrop", "rsrej", "viol"},
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, r := range chaosSoakRuns(seed) {
			t.Rows = append(t.Rows, r.row)
		}
	}
	t.Notes = append(t.Notes,
		"each seed names one fault schedule (link corruption, Gilbert-Elliott bursts, blackouts, ring stalls, cache wipes, resync loss) applied identically to every mode",
		"nvme digest failures fail the read, framing corruption kills the association; in no mode does a wrong byte reach the application")
	return t
}

// soakRun is one transport's chaos-soak row and what its byte checks found.
type soakRun struct {
	row []string
	verdict
}

// chaosSoakRuns executes one seed's schedule across the five transports.
func chaosSoakRuns(seed int64) []soakRun {
	run := func(mode string, gbps float64, eng offload.RxStats, st nic.Stats, v verdict) soakRun {
		return soakRun{[]string{
			fmt.Sprint(seed), mode, f1(gbps), f1(float64(v.checked) / (1 << 20)),
			fmt.Sprint(eng.Fallbacks), fmt.Sprint(eng.CorruptionDrops),
			fmt.Sprint(st.RxRingStalls), fmt.Sprint(st.CtxInvalidations),
			fmt.Sprint(eng.ResyncDropped), fmt.Sprint(eng.ForcedRejects),
			fmt.Sprint(len(v.violations)),
		}, v}
	}
	var out []soakRun
	for _, mode := range []IperfMode{IperfTCP, IperfTLS, IperfTLSOffload} {
		w, r := chaosIperf(ChaosSchedule(seed, mode != IperfTCP), mode, chaosStreams, chaosWindow)
		out = append(out, run(mode.String(), r.rcvGbps(&w.Model), r.RxEngine, w.Srv.NIC.Stats(), r.verdict))
	}
	for _, mode := range []string{"nvme", "nvme-offload"} {
		w, r := chaosFio(ChaosSchedule(seed, true), mode == "nvme-offload", 8, chaosWindow)
		out = append(out, run(mode, r.gbps(&w.Model), w.hostRxStats(), w.Srv.NIC.Stats(), r.verdict))
	}
	return out
}

// hostRxStats is the NVMe host's receive-engine counters; zero without the
// offload.
func (w *StorageWorld) hostRxStats() offload.RxStats {
	if e := w.Host.RxEngine(); e != nil {
		return e.Stats
	}
	return offload.RxStats{}
}

// Chaos is the registered experiment: the corruption sweep plus the soak.
func Chaos() []*Table {
	return []*Table{ChaosCorruption(), ChaosSoak()}
}
