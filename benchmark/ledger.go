package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/wire"
)

// The traced run: the layer replays, one repetition with the shims
// installed and every span kept, the same repetition again untraced (the
// difference is the tracing overhead), and — always on iperf_tls_offload's
// world, whatever workload is being traced — the ShardRun workers x queues
// table and the cost of turning telemetry on. From those it assembles the
// per-layer ledger: counts read from public Stats, replayed ns/op, shim
// self times, and for the packet-path layers an estimate of how much of
// the measured ns/packet each one accounts for.

// sideWindow sizes the shard-table and telemetry repetitions: shorter than
// iperf_tls_offload's own window, still ~250 k packets for a stable rate.
const sideWindow = 10 * time.Millisecond

// outDir receives the Chrome trace; it is git-ignored. Relative to the
// working directory, which for every documented invocation is the repo
// root (tests point it at a temporary directory).
var outDir = "benchmark/out"

// emptySpanSelfNs measures what a leaf span's self time reads when nothing
// runs inside it — the clock reads and bookkeeping that every shim span
// includes — so shim self times can be reported net of it.
func emptySpanSelfNs() float64 {
	r := &recorder{t0: time.Now(), open: -1}
	const n = 1 << 16
	for i := 0; i < n; i++ {
		r.end(r.begin(spanNicTx))
	}
	t := selfTimes(r.spans, 0)[spanNicTx]
	return float64(t.selfNs) / float64(t.n)
}

// writeTraceFile writes the window's spans under outDir and returns the
// file's path.
func writeTraceFile(spans []span, from int64, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace_%s_seed%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := writeChrome(f, spans, from, workload); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// lerp interpolates a wire cost between its ACK-sized and MSS-sized
// replays by mean payload size.
func lerp(ack, full, payloadBytes float64) float64 {
	return ack + (full-ack)*payloadBytes/mss
}

// runTraced produces every per-layer metric for one workload and writes
// the Chrome trace.
func runTraced(wl *workloadSpec, seed int64, quick bool, log io.Writer) (map[string]float64, *repResult, error) {
	// Replays first, on the process's fresh heap: run after the
	// repetitions they would be timed against whatever garbage the worlds
	// left behind.
	rp, err := runReplays()
	if err != nil {
		return nil, nil, err
	}

	rec := newRecorder()
	traced, err := runRep(wl, seed, rec, repOpts{quick: quick})
	if err != nil {
		return nil, nil, fmt.Errorf("traced repetition: %w", err)
	}
	rec.sim = nil // the spans outlive the world; let it be collected
	plain, err := runRep(wl, seed, nil, repOpts{quick: quick})
	if err != nil {
		return nil, nil, fmt.Errorf("untraced repetition: %w", err)
	}
	if d := diffFingerprints(traced.fp, plain.fp); len(d) > 0 {
		return nil, nil, fmt.Errorf("the shims changed the simulation:\n  %s", strings.Join(d, "\n  "))
	}
	tracePath, err := writeTraceFile(rec.spans, traced.windowStart, wl.name, seed)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(log, "trace: %d spans recorded, window written to %s\n", len(rec.spans), tracePath)

	// Side experiments on the headline workload's world.
	w1 := workloadByName("iperf_tls_offload")
	side := func(o repOpts) (float64, error) {
		o.quick = quick
		o.window = sideWindow
		r, err := runRep(w1, seed, nil, o)
		if err != nil {
			return 0, fmt.Errorf("side repetition %+v: %w", o, err)
		}
		return r.e2e("wall_pps"), nil
	}
	m := map[string]float64{}
	for _, c := range []struct{ workers, queues int }{{1, 1}, {1, 4}, {2, 4}} {
		pps, err := side(repOpts{tun: tuning{queues: c.queues, workers: c.workers}})
		if err != nil {
			return nil, nil, err
		}
		m[fmt.Sprintf("netsim.shard_pps_w%d_q%d", c.workers, c.queues)] = pps
	}
	off, err := side(repOpts{})
	if err != nil {
		return nil, nil, err
	}
	on, err := side(repOpts{telemetry: true})
	if err != nil {
		return nil, nil, err
	}
	m["telemetry.on_overhead_pct"] = (off/on - 1) * 100

	// Replays and counts by their reported names.
	for _, s := range perLayer {
		if v, ok := rp[s.name]; ok {
			m[s.name] = v
		}
		if v, ok := plain.fp[s.name]; ok {
			m[s.name] = v
		}
	}

	// Shim self times over the measured window.
	tot := selfTimes(rec.spans, traced.windowStart)
	empty := emptySpanSelfNs()
	selfPer := func(k spanKind) float64 {
		if tot[k].n == 0 {
			return 0
		}
		return max(0, float64(tot[k].selfNs)/float64(tot[k].n)-empty)
	}
	m["nic.tx_post_ns"] = selfPer(spanNicTx)
	m["nic.rx_enqueue_ns"] = selfPer(spanNicRx)
	for _, s := range rec.spans {
		if s.kind == spanWorldBuild {
			m["experiments.world_build_ns"] = float64(s.end - s.start)
			break
		}
	}

	m["host.rss_peak_mb"] = peakRSSMB()
	m["host.gc_cycles"] = float64(plain.gcCycles)
	m["host.gc_pause_ms"] = float64(plain.gcPauseNs) / 1e6
	m["host.trace_overhead_pct"] = (traced.wallS/plain.wallS - 1) * 100

	// Per-packet estimates: replayed ns/op x counted ops/packet.
	raw := plain.raw
	pk := raw["packets"]
	per := func(key string) float64 { return raw[key] / pk }
	txN, rxN := float64(tot[spanNicTx].n), float64(tot[spanNicRx].n)
	dataSegs := float64(tot[spanNicTx].argPos)
	txPayload := ratio(float64(tot[spanNicTx].argSum), txN)
	rxPayload := max(0, ratio(float64(tot[spanNicRx].argSum), rxN)-wire.FrameOverhead)
	// ktls is the one layer with a seam on its receive side: the shim's
	// self time is the record layer's own work plus any software decrypt,
	// which gcm's estimate already carries.
	ktlsRx := max(0, float64(tot[spanKTLSRx].selfNs)/pk-per("gcm_aead_bytes")*rp["gcm.seal_ns_per_byte_16k"])
	est := map[string]float64{
		"netsim": (per("steps")-per("link_delivered"))*rp["netsim.event_ns"] +
			per("link_sent")*rp["netsim.link_send_ns"],
		"wire": per("rx_pkts")*(lerp(rp["wire.parse_ns.ack"], rp["wire.parse_ns"], rxPayload)+rp["wire.peekflow_ns"]) +
			per("tx_pkts")*(lerp(rp["wire.marshal_headers_ns.ack"], rp["wire.marshal_headers_ns"], txPayload)+rp["wire.pool_getput_ns"]),
		"tcpip": dataSegs/pk*rp["tcpip.segment_ns"] + per("conns")*rp["tcpip.connect_close_ns"],
		"nic":   txN/pk*m["nic.tx_post_ns"] + rxN/pk*m["nic.rx_enqueue_ns"],
		"offload": (per("eng_rx_pkts")+per("eng_tx_pkts"))*rp["offload.rx_process_ns_null"] +
			per("eng_rx_unoffloaded")*mss*rp["offload.rx_search_ns_per_byte"],
		"gcm": per("gcm_stream_bytes")*rp["gcm.stream_ns_per_byte_1448"] +
			per("gcm_aead_bytes")*rp["gcm.seal_ns_per_byte_16k"],
		"crc32c": per("crc_bytes") * rp["crc32c.ns_per_byte_1448"],
		"ktls":   ktlsRx + 2*per("conns")*rp["ktls.newconn_ns"],
	}
	measured := plain.wallS * 1e9 / pk
	var sum float64
	for _, l := range estLayers {
		m[l+".est_ns_per_pkt"] = est[l]
		sum += est[l]
	}
	m["host.unattributed_share"] = 1 - sum/measured

	printLedger(log, wl, m, tot, measured)
	return m, &plain, nil
}

// printLedger renders the per-layer table for people: every metric grouped
// by layer, then the span self times, then the estimate against the
// measured per-packet cost.
func printLedger(w io.Writer, wl *workloadSpec, m map[string]float64, tot [numSpanKinds]kindTotals, measured float64) {
	fmt.Fprintf(w, "\nper-layer ledger: %s\n", wl.name)
	layer := ""
	for _, s := range perLayer {
		if l, _, _ := strings.Cut(s.name, "."); l != layer {
			layer = l
			fmt.Fprintf(w, "  [%s]\n", layer)
		}
		fmt.Fprintf(w, "    %-38s %16.4f %s\n", s.name, m[s.name], s.unit)
	}
	fmt.Fprintf(w, "  span self time over the window (host ns):\n")
	for k := spanKind(0); k < numSpanKinds; k++ {
		if tot[k].n == 0 {
			continue
		}
		fmt.Fprintf(w, "    %-20s %-12s n=%-9d self/span=%9.1f total=%6.1f ms\n",
			spanNames[k].name, spanNames[k].layer, tot[k].n,
			float64(tot[k].selfNs)/float64(tot[k].n), float64(tot[k].selfNs)/1e6)
	}
	fmt.Fprintf(w, "  measured %.1f ns/packet; estimated shares:\n", measured)
	layers := append([]string(nil), estLayers...)
	sort.SliceStable(layers, func(i, j int) bool {
		return m[layers[i]+".est_ns_per_pkt"] > m[layers[j]+".est_ns_per_pkt"]
	})
	for _, l := range layers {
		e := m[l+".est_ns_per_pkt"]
		fmt.Fprintf(w, "    %-10s %9.1f ns  %5.1f%%\n", l, e, 100*e/measured)
	}
	fmt.Fprintf(w, "    %-10s %19.1f%%\n", "unattributed", 100*m["host.unattributed_share"])
}
