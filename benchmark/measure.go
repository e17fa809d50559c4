package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/cycles"
	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// One repetition: build a fresh world, warm it up, time a fixed
// virtual-time window from outside, drain, and verify. Everything the
// window did on the virtual side — packets, events, bytes, the modeled
// throughput, every Stats counter — is a pure function of the workload
// and seed, so it lands in the repetition's fingerprint and must repeat
// exactly; only the host-side numbers (wall, CPU, allocations) vary.

// repResult is what one repetition measured.
type repResult struct {
	setupS, wallS, cpuS float64
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcPauseNs           uint64
	// windowStart is the recorder-relative host time the measured window
	// opened at (traced repetitions only).
	windowStart int64
	// attempted and failed count application operations from the window's
	// opening through the end of the drain.
	attempted, failed uint64
	// raw holds the window's counter deltas by internal name; fp is the
	// deterministic fingerprint derived from them.
	raw map[string]float64
	fp  map[string]float64
}

func (r *repResult) packets() float64 { return r.raw["packets"] }

// e2e returns the repetition's value of one end-to-end metric.
func (r *repResult) e2e(name string) float64 {
	switch name {
	case "wall_pps":
		return r.packets() / r.wallS
	case "cpu_ns_per_pkt":
		return r.cpuS * 1e9 / r.packets()
	case "allocs_per_pkt":
		return float64(r.mallocs) / r.packets()
	case "alloc_bytes_per_pkt":
		return float64(r.allocBytes) / r.packets()
	case "setup_s":
		return r.setupS
	}
	return r.fp[name] // sim_gbps_per_core, sim_goodput_gbps
}

// rusage reads the process's resource usage; the zero value on failure
// makes every derived number zero rather than garbage.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return syscall.Rusage{}
	}
	return ru
}

// cpuSeconds is the process's user+system CPU time: the simulator's event
// goroutine, the ShardRun workers, and the garbage collector together.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// repOpts selects a repetition's variant.
type repOpts struct {
	quick     bool
	tun       tuning
	telemetry bool          // build the world with a telemetry system attached
	window    time.Duration // overrides the workload's window when > 0
}

// runRep executes one repetition. A panic anywhere inside the world fails
// the repetition (returned as an error); a panic on a ShardRun worker
// goroutine cannot be caught and takes the process down, which is also a
// non-zero exit.
func runRep(wl *workloadSpec, seed int64, rec *recorder, o repOpts) (res repResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	warmup, window := wl.warmup, wl.window
	if o.window > 0 {
		window = o.window
	}
	if o.quick {
		warmup, window = quickWindow, quickWindow
	}

	// Collect the previous repetition's world before building the next, so
	// the process never holds two of them (churn's is ~0.5 GB).
	runtime.GC()
	t0 := time.Now()
	if o.telemetry {
		experiments.UseTelemetry(telemetry.NewSystem(0))
		defer experiments.UseTelemetry(nil)
	}
	in := wl.start(rec, seed, o.tun)
	if o.tun.workers > 0 {
		in.sim.SetShardWorkers(o.tun.workers)
	}
	in.sim.RunFor(warmup)
	// Start every window from a freshly collected heap so the collector's
	// phase does not carry over from the previous repetition's garbage.
	runtime.GC()

	before := rawCounts(in)
	ledger0 := in.dut.Ledger.Clone()
	in.app = appCounters{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	if rec != nil {
		res.windowStart = rec.now()
	}
	tw := time.Now()
	res.setupS = tw.Sub(t0).Seconds()

	root := rec.begin(spanWindow)
	in.sim.RunFor(window)
	rec.end(root)

	res.wallS = time.Since(tw).Seconds()
	res.cpuS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.gcCycles = m1.NumGC - m0.NumGC
	res.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs

	res.raw = rawCounts(in)
	for k, v := range before {
		res.raw[k] -= v
	}
	win := in.app
	dut := cycles.Diff(in.dut.Ledger, ledger0)
	res.raw["payload_bytes"] = float64(win.bytes)
	res.raw["dut_host_cycles"] = dut.HostCycles()
	res.raw["dut_pcie_bytes"] = float64(dut.TotalBytes(cycles.PCIe))

	// Drain: stop offering load, let in-flight work finish, and let frames
	// still on a wire land so the pool balance is exact.
	in.stop()
	drained := in.drain()
	for i := 0; i < 1000 && in.pool.InUse() > 0; i++ {
		in.sim.RunFor(10 * time.Microsecond)
	}
	res.attempted, res.failed = in.app.ops, in.app.failed
	res.raw["pool_in_use_end"] = float64(in.pool.InUse())
	res.raw["leaked"] = float64(in.leaked())

	res.fp = fingerprint(res.raw, in.model.SingleCoreGbps(dut, win.bytes),
		cycles.Gbps(win.bytes, window.Seconds()))
	switch {
	case !drained:
		err = fmt.Errorf("operations still in flight after drain (%v)", in.app)
	case in.pool.InUse() != 0:
		err = fmt.Errorf("frame pool holds %d frames after drain", in.pool.InUse())
	case in.leaked() != 0:
		err = fmt.Errorf("%d NIC contexts leaked after drain", in.leaked())
	case res.attempted == 0:
		err = fmt.Errorf("no operation completed")
	}
	return res, err
}

// rawCounts reads every public counter the ledger needs as running totals.
// All values are additive, so a window's share is after minus before.
func rawCounts(in *inst) map[string]float64 {
	m := map[string]float64{"steps": float64(in.sim.Steps())}
	for _, h := range in.hosts {
		st := h.NIC.Stats()
		m["tx_pkts"] += float64(st.TxPackets)
		m["rx_pkts"] += float64(st.RxPackets)
		m["tx_bytes"] += float64(st.TxBytes)
		m["rx_bytes"] += float64(st.RxBytes)
		m["rx_polls"] += float64(st.RxPolls)
		m["rx_polled_frames"] += float64(st.RxPolledFrames)
		m["tx_doorbells"] += float64(st.TxDoorbells)
		m["tx_doorbell_pkts"] += float64(st.TxDoorbellPackets)
		m["ctx_hits"] += float64(st.CtxCacheHits)
		m["ctx_miss"] += float64(st.CtxCacheMiss)
		m["rx_bad_frames"] += float64(st.RxBadFrames)
		m["rx_searches"] += float64(st.RxSearches)
		m["rx_resumes"] += float64(st.RxResumes)
		m["rx_fallbacks"] += float64(st.RxFallbacks)
		m["tx_recovery_dma"] += float64(st.TxRecoveryDMA)

		ts := h.Stack.Stats
		m["tcp_retransmits"] += float64(ts.Retransmits)
		m["tcp_timeouts"] += float64(ts.Timeouts)
		m["tcp_ooo_in"] += float64(ts.OutOfOrderIn)

		// Bytes through the real crypto and checksum code: the ledger
		// charges them exactly where gcm / crc32c run.
		lg := h.Ledger
		m["gcm_stream_bytes"] += float64(lg.Get(cycles.NIC, cycles.Encrypt).Bytes + lg.Get(cycles.NIC, cycles.Decrypt).Bytes)
		m["gcm_aead_bytes"] += float64(lg.Get(cycles.HostL5P, cycles.Encrypt).Bytes + lg.Get(cycles.HostL5P, cycles.Decrypt).Bytes)
		m["crc_bytes"] += float64(lg.Get(cycles.NIC, cycles.CRC).Bytes + lg.Get(cycles.HostL5P, cycles.CRC).Bytes)
	}
	m["packets"] = m["tx_pkts"] + m["rx_pkts"]
	for _, l := range in.links {
		ab, ba := l.StatsAtoB(), l.StatsBtoA()
		m["link_sent"] += float64(ab.Sent + ba.Sent)
		m["link_delivered"] += float64(ab.Delivered + ba.Delivered)
		m["link_dropped"] += float64(ab.Dropped + ba.Dropped)
	}
	m["pool_news"] = float64(in.pool.Stats().News)
	e := in.engines()
	m["eng_rx_offloaded"] = float64(e.rx.PktsOffloaded)
	m["eng_rx_unoffloaded"] = float64(e.rx.PktsUnoffloaded)
	m["eng_rx_pkts"] = float64(e.rx.PktsOffloaded + e.rx.PktsBypassed + e.rx.PktsUnoffloaded)
	m["eng_resync_requests"] = float64(e.rx.ResyncRequests)
	m["eng_tx_pkts"] = float64(e.tx.PktsProcessed + e.tx.PktsSkipped)
	in.l5p(m)
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fingerprint derives the deterministic values a repetition must
// reproduce: the sizes of the fixed work, the two modeled end-to-end
// metrics, and every per-layer count metric.
func fingerprint(raw map[string]float64, simGbpsPerCore, simGoodput float64) map[string]float64 {
	pk := raw["packets"]
	placed := raw["nvmetcp.bytes_copied"] + raw["nvmetcp.bytes_placed"]
	return map[string]float64{
		"packets":           pk,
		"payload_bytes":     raw["payload_bytes"],
		"steps":             raw["steps"],
		"sim_gbps_per_core": simGbpsPerCore,
		"sim_goodput_gbps":  simGoodput,

		"netsim.events_per_pkt":  ratio(raw["steps"], pk),
		"netsim.link.dropped":    raw["link_dropped"],
		"wire.pool.news_per_pkt": ratio(raw["pool_news"], pk),
		"wire.pool.in_use_end":   raw["pool_in_use_end"],
		"tcpip.retransmits":      raw["tcp_retransmits"],
		"tcpip.timeouts":         raw["tcp_timeouts"],
		"tcpip.ooo_in":           raw["tcp_ooo_in"],

		"nic.rx_frames_per_poll":   ratio(raw["rx_polled_frames"], raw["rx_polls"]),
		"nic.tx_pkts_per_doorbell": ratio(raw["tx_doorbell_pkts"], raw["tx_doorbells"]),
		"nic.ctx_hit_rate":         ratio(raw["ctx_hits"], raw["ctx_hits"]+raw["ctx_miss"]),
		"nic.rx_bad_frames":        raw["rx_bad_frames"],

		"offload.rx.fastpath_share":     ratio(raw["eng_rx_offloaded"], raw["eng_rx_pkts"]),
		"offload.rx.searches":           raw["rx_searches"],
		"offload.rx.resumes":            raw["rx_resumes"],
		"offload.rx.fallbacks":          raw["rx_fallbacks"],
		"offload.rx.resync_requests":    raw["eng_resync_requests"],
		"offload.tx.recovery_dma_bytes": raw["tx_recovery_dma"],

		"ktls.sw_decrypt_share": ratio(raw["ktls.sw_decrypt_bytes"], raw["payload_bytes"]),
		"ktls.auth_failures":    raw["ktls.auth_failures"],

		"nvmetcp.sw_copy_share": ratio(raw["nvmetcp.bytes_copied"], placed),
		"nvmetcp.sw_crc_share":  ratio(raw["nvmetcp.crc_sw_bytes"], placed),
		"nvmetcp.digest_errors": raw["nvmetcp.digest_errors"],

		"cycles.host_cycles_per_byte":        ratio(raw["dut_host_cycles"], raw["payload_bytes"]),
		"cycles.pcie_bytes_per_payload_byte": ratio(raw["dut_pcie_bytes"], raw["payload_bytes"]),
	}
}

// diffFingerprints lists the keys on which two fingerprints disagree.
func diffFingerprints(got, want map[string]float64) []string {
	var out []string
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			out = append(out, fmt.Sprintf("%s: got %v, want %v", k, got[k], w))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			out = append(out, fmt.Sprintf("%s: got %v, not pinned", k, got[k]))
		}
	}
	sort.Strings(out)
	return out
}

// stat summarises one metric over the repetitions of a run.
type stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

func summarize(vals []float64, unit string) stat {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return stat{Median: med, Min: s[0], Max: s[n-1], N: n, Unit: unit}
}
