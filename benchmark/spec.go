package main

import (
	"slices"
	"strings"
	"time"
)

// The benchmark's vocabulary: workload names and sizes, the end-to-end
// metric list with units, directions, and regression bounds, and the
// per-layer metric list. BENCHMARK.json at the repo root mirrors these
// tables; TestSpecMatchesBenchmarkJSON keeps the two from drifting.

// workloadSpec sizes one workload. Work per repetition is fixed by the
// virtual-time window — same packets, bytes, and events every time — so
// the only thing a repetition measures is how long this host took.
type workloadSpec struct {
	name string
	why  string
	// warmup runs traffic before the measured window opens (pipelines
	// fill, congestion windows open, caches populate); it is part of
	// setup_s. window is the measured virtual-time span.
	warmup, window time.Duration
	start          func(rec *recorder, seed int64, tun tuning) *inst
}

// runSeconds is BENCHMARK.json's run_seconds: how long one driver run keeps
// starting repetitions. Each workload's window is sized to about two
// seconds of host time on the 2-core reference host, so a run takes the
// median of roughly a dozen repetitions.
const runSeconds = 30

// quickWindow replaces every workload's warm-up and window under -quick:
// a smoke-test size that exercises the whole path in well under a second.
const quickWindow = time.Millisecond

var workloads = []workloadSpec{
	{
		name:   "iperf_tls_offload",
		why:    "paper 6.1 headline path: 4 TLS streams, NIC rx+tx offload, 4 queues, batched polls; gcm.Stream and the offload engines do most of the host work",
		warmup: 3 * time.Millisecond, window: 14 * time.Millisecond,
		start: func(rec *recorder, seed int64, tun tuning) *inst {
			return startIperf(rec, seed, true, tun.queuesOr(4), 2*time.Microsecond)
		},
	},
	{
		name:   "iperf_tcp_unbatched",
		why:    "bypasses gcm/ktls/offload/ShardRun: plain TCP, 1 queue, no poll coalescing, so the event core, wire codec, tcpip and NIC copies do all the work",
		warmup: 3 * time.Millisecond, window: 36 * time.Millisecond,
		start: func(rec *recorder, seed int64, tun tuning) *inst {
			return startIperf(rec, seed, false, tun.queuesOr(1), 0)
		},
	},
	{
		name:   "fio_nvme_read",
		why:    "same RxEngine driven by nvmetcp ops: CRC32C and direct placement of 256 KiB reads at depth 32 over 3 machines, one flow so one busy lane, no GCM at all",
		warmup: 5 * time.Millisecond, window: 110 * time.Millisecond,
		start: func(rec *recorder, seed int64, tun tuning) *inst {
			return startFio(rec, seed, tun.queuesOr(4), 2*time.Microsecond)
		},
	},
	{
		name:   "churn_tls_lossy",
		why:    "set-up/tear-down and slow path: 96 short TLS connections over a 64-entry context cache with 0.1% loss, so handshakes, attach/detach, eviction, resync and software fallback dominate",
		warmup: 2 * time.Millisecond, window: 9 * time.Millisecond,
		start: func(rec *recorder, seed int64, tun tuning) *inst {
			return startChurn(rec, seed, tun.queuesOr(4))
		},
	},
}

func workloadByName(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricSpec names one reported number. bound is the share of the parent's
// median an end-to-end metric may worsen by before it is a regression;
// per-layer metrics carry none.
type metricSpec struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	bound  float64
}

// endToEnd is what a user of the simulator sees, the same names on every
// workload. The sim_* pair is virtual (modeled) and must not move under a
// host-speed change; everything else is this host's cost of simulating.
// The failure share is not in this list: the result line's attempted and
// failed counts carry it (a metric that is always zero cannot be bounded
// relative to its median).
//
// The bounds are sized from measured run-to-run spreads on the shared
// 2-core reference host, whose speed drifts by about ±10% over minutes:
// across two sweeps of ten runs per workload the interquartile spread of
// the two host-time metrics was 2–9% and the medians of the sweeps moved
// by up to 12%, so only the widest bound keeps a same-commit rerun safely
// inside it. The sim_* bound is 2% only because the driver varies the
// seed and churn's modeled numbers move ±0.3% with it; at a fixed seed
// they are bit-identical and expected.json pins them exactly.
var endToEnd = []metricSpec{
	{"wall_pps", "1/s", "higher", 0.25},
	{"cpu_ns_per_pkt", "ns", "lower", 0.25},
	{"allocs_per_pkt", "count", "lower", 0.01},
	{"alloc_bytes_per_pkt", "bytes", "lower", 0.02},
	{"sim_gbps_per_core", "Gbps", "higher", 0.02},
	{"sim_goodput_gbps", "Gbps", "higher", 0.02},
	{"setup_s", "s", "lower", 0.25},
}

// estLayers are the packet-path layers whose replay costs are folded into
// <layer>.est_ns_per_pkt.
var estLayers = []string{"netsim", "wire", "tcpip", "nic", "offload", "gcm", "crc32c", "ktls"}

// perLayer lists every traced-run metric. Counts (deterministic, read from
// public Stats) are marked by unit "count", "ratio", or "bytes"; host-time
// metrics by "ns", "1/s", "%", "MB", "ms".
var perLayer = func() []metricSpec {
	lo := func(name, unit string) metricSpec { return metricSpec{name, unit, "lower", 0} }
	hi := func(name, unit string) metricSpec { return metricSpec{name, unit, "higher", 0} }
	m := []metricSpec{
		lo("netsim.event_ns", "ns"), lo("netsim.event_allocs", "count"), lo("netsim.link_send_ns", "ns"),
		lo("netsim.events_per_pkt", "count"), lo("netsim.link.dropped", "count"),
		lo("netsim.shardrun_ns_w1", "ns"), lo("netsim.shardrun_ns_w2", "ns"),
		hi("netsim.shard_pps_w1_q1", "1/s"), hi("netsim.shard_pps_w1_q4", "1/s"), hi("netsim.shard_pps_w2_q4", "1/s"),

		lo("wire.parse_ns", "ns"), lo("wire.parse_allocs", "count"), lo("wire.marshal_headers_ns", "ns"),
		lo("wire.peekflow_ns", "ns"), lo("wire.pool_getput_ns", "ns"),
		lo("wire.pool.news_per_pkt", "count"), lo("wire.pool.in_use_end", "count"),

		lo("tcpip.segment_ns", "ns"), lo("tcpip.segment_allocs", "count"),
		lo("tcpip.connect_close_ns", "ns"), lo("tcpip.connect_close_allocs", "count"),
		lo("tcpip.retransmits", "count"), lo("tcpip.timeouts", "count"), lo("tcpip.ooo_in", "count"),

		lo("nic.tx_post_ns", "ns"), lo("nic.rx_enqueue_ns", "ns"), lo("nic.stats_ns", "ns"),
		hi("nic.rx_frames_per_poll", "count"), hi("nic.tx_pkts_per_doorbell", "count"),
		hi("nic.ctx_hit_rate", "ratio"), lo("nic.rx_bad_frames", "count"),

		lo("offload.rx_process_ns_null", "ns"), lo("offload.rx_process_ns_ktls", "ns"),
		lo("offload.tx_process_ns_ktls", "ns"), lo("offload.rx_process_ns_nvme", "ns"),
		lo("offload.rx_search_ns_per_byte", "ns"),
		hi("offload.rx.fastpath_share", "ratio"), lo("offload.rx.searches", "count"),
		hi("offload.rx.resumes", "count"), lo("offload.rx.fallbacks", "count"),
		lo("offload.rx.resync_requests", "count"), lo("offload.tx.recovery_dma_bytes", "bytes"),

		lo("gcm.stream_ns_per_byte_64", "ns"), lo("gcm.stream_ns_per_byte_1448", "ns"),
		lo("gcm.stream_ns_per_byte_16k", "ns"), lo("gcm.stream_allocs_per_record", "count"),
		lo("gcm.seal_ns_per_byte_16k", "ns"),

		lo("crc32c.ns_per_byte_64", "ns"), lo("crc32c.ns_per_byte_1448", "ns"),

		lo("ktls.sw_record_ns_16k", "ns"), lo("ktls.newconn_ns", "ns"), lo("ktls.newconn_allocs", "count"),
		lo("ktls.sw_decrypt_share", "ratio"), lo("ktls.auth_failures", "count"),

		lo("nvmetcp.build_pdu_ns", "ns"), lo("nvmetcp.parse_header_ns", "ns"),
		lo("nvmetcp.sw_copy_share", "ratio"), lo("nvmetcp.sw_crc_share", "ratio"),
		lo("nvmetcp.digest_errors", "count"),

		lo("cycles.host_cycles_per_byte", "count"), lo("cycles.pcie_bytes_per_payload_byte", "ratio"),

		lo("telemetry.snapshot_ns", "ns"), lo("telemetry.hist_record_ns", "ns"),
		lo("telemetry.instant_ns", "ns"), lo("telemetry.on_overhead_pct", "%"),

		lo("experiments.world_build_ns", "ns"),

		lo("host.rss_peak_mb", "MB"), lo("host.gc_cycles", "count"), lo("host.gc_pause_ms", "ms"),
		lo("host.trace_overhead_pct", "%"), lo("host.unattributed_share", "ratio"),
	}
	// Each packet-path layer's estimate closes that layer's group.
	var out []metricSpec
	for i, s := range m {
		out = append(out, s)
		layer, _, _ := strings.Cut(s.name, ".")
		last := i+1 == len(m) || !strings.HasPrefix(m[i+1].name, layer+".")
		if last && slices.Contains(estLayers, layer) {
			out = append(out, lo(layer+".est_ns_per_pkt", "ns"))
		}
	}
	return out
}()
