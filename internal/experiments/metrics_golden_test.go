package experiments

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/appsim"
	"repro/internal/blockdev"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/telemetry"
	"repro/internal/telemetry/sampler"
)

// TestWorldMetricsGolden pins what telemetry sees of both world kinds: a
// short offloaded iperf on a pair world, then a short NVMe-over-TLS HTTP
// run with every offload on a storage world, under one system and a
// 100 µs sampler. The golden holds the final metrics snapshot (every
// counter the links, pool, stacks, NICs, engines, NVMe-TCP host and
// target, block device and application register, and their histograms)
// and, after it, the sampler's CSV header with one "series points" line
// per series, so a counter that is registered under another name, twice,
// or no longer, or a world that samples on another cadence, shows.
func TestWorldMetricsGolden(t *testing.T) {
	sys := telemetry.NewSystem(0)
	smp := sampler.New(sys.Reg, sampler.Config{Interval: 100 * time.Microsecond})
	UseTelemetry(sys)
	UseSampler(smp)
	defer func() {
		UseTelemetry(nil)
		UseSampler(nil)
	}()

	pw := NewPairWorld(netsim.LinkConfig{Gbps: 100, Latency: 2 * time.Microsecond}, nic.Config{})
	ir := RunIperf(pw, IperfTLSOffload, 2, 64<<10, 16<<10, time.Millisecond)
	requireClean(t, "iperf", ir.verdict, 0)

	sw := NewStorageWorld(StorageOpts{OverTLS: true, NVMePlace: true, NVMeCRC: true})
	hr := RunHTTPC1(sw, appsim.ModeTLSOffloadZC, 4, 16<<10, time.Millisecond)
	requireClean(t, "http-c1", hr.verdict, 0)

	var got bytes.Buffer
	sys.Reg.Snapshot().Fprint(&got)
	var csv bytes.Buffer
	if err := smp.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	header, _, _ := bytes.Cut(csv.Bytes(), []byte("\n"))
	fmt.Fprintf(&got, "\n%s\n", header)
	for _, s := range smp.Series() {
		fmt.Fprintf(&got, "%s %d\n", s.Name, s.Len())
	}
	compareGolden(t, "world_metrics_golden.txt", got.Bytes())
}

// TestFioLatencyHistogram runs the one name-coining site the golden world
// does not: RunFio registers fio.request_latency_ns through
// world.histogram only on a telemetry-on storage world. The histogram
// also holds the warm-up's reads, so it counts at least the window's.
func TestFioLatencyHistogram(t *testing.T) {
	sys := telemetry.NewSystem(0)
	UseTelemetry(sys)
	defer UseTelemetry(nil)

	sw := NewStorageWorld(StorageOpts{NVMePlace: true, NVMeCRC: true})
	fr := RunFio(sw, 8*blockdev.BlockSize, 4, time.Millisecond)
	requireClean(t, "fio", fr.verdict, fr.failed)
	if n := sys.Reg.Histogram("fio.request_latency_ns").Count(); n == 0 || n < fr.Requests {
		t.Errorf("fio.request_latency_ns counts %d reads, want at least the window's %d (> 0)", n, fr.Requests)
	}
}
