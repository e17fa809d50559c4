package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/appsim"
	"repro/internal/cycles"
	"repro/internal/netsim"
	"repro/internal/nic"
)

// These tests assert the *shape* properties each experiment must
// reproduce: who wins, roughly by how much, and where crossovers fall.
// They run the same machinery as the benchmark harness but on the
// smallest configurations that still exhibit the shapes.

func TestTablePrinting(t *testing.T) {
	tab := &Table{
		ID:      "x",
		Title:   "T",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"n"},
	}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== x: T ==", "a    bb", "333  4", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistry(t *testing.T) {
	if len(All()) != 25 {
		t.Errorf("expected 25 experiments, got %d", len(All()))
	}
	if _, ok := ByID("fig13"); !ok {
		t.Error("fig13 missing from registry")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown id resolved")
	}
	if len(IDs()) != len(All()) {
		t.Error("IDs() length mismatch")
	}
}

// requireClean fails the test unless the run checked delivered bytes and
// found no wrong byte, no failed connection and no failed read.
func requireClean(t *testing.T, label string, v verdict, failedReads uint64) {
	t.Helper()
	if v.checked == 0 || len(v.violations) != 0 || v.connsFailed != 0 || failedReads != 0 {
		t.Errorf("%s: %d bytes checked, violations %v, %d failed connections, %d failed reads",
			label, v.checked, v.violations, v.connsFailed, failedReads)
	}
}

func TestIperfOffloadRemovesHostCrypto(t *testing.T) {
	sw := RunIperf(cleanPair(), IperfTLS, 2, 256<<10, 16<<10, 2*time.Millisecond)
	hw := RunIperf(cleanPair(), IperfTLSOffload, 2, 256<<10, 16<<10, 2*time.Millisecond)
	requireClean(t, "tls", sw.verdict, 0)
	requireClean(t, "offload", hw.verdict, 0)
	if sw.Snd.HostOpCycles(cycles.Encrypt) == 0 {
		t.Error("software run charged no encrypt")
	}
	if hw.Snd.HostOpCycles(cycles.Encrypt) != 0 {
		t.Error("offload run charged host encrypt")
	}
	swCPB := sw.Snd.HostCycles() / float64(sw.Bytes)
	hwCPB := hw.Snd.HostCycles() / float64(hw.Bytes)
	if ratio := swCPB / hwCPB; ratio < 1.8 || ratio > 4.5 {
		t.Errorf("tx offload speedup %.2f outside the paper's band (~3.3x)", ratio)
	}
	rxRatio := (sw.Rcv.HostCycles() / float64(sw.Bytes)) /
		(hw.Rcv.HostCycles() / float64(hw.Bytes))
	if rxRatio < 1.5 || rxRatio > 4 {
		t.Errorf("rx offload speedup %.2f outside the paper's band (~2.2x)", rxRatio)
	}
}

func TestEmulationAccuracy(t *testing.T) {
	// §6.2: predicted (software minus crypto) vs actual offload ≤7%.
	sw := RunIperf(cleanPair(), IperfTLS, 1, 256<<10, 16<<10, 2*time.Millisecond)
	hw := RunIperf(cleanPair(), IperfTLSOffload, 1, 256<<10, 16<<10, 2*time.Millisecond)
	pred := (sw.Snd.HostCycles() - sw.Snd.HostOpCycles(cycles.Encrypt)) / float64(sw.Bytes)
	act := hw.Snd.HostCycles() / float64(hw.Bytes)
	diff := act/pred - 1
	if diff < -0.07 || diff > 0.07 {
		t.Errorf("emulation error %.1f%% exceeds the paper's 7%%", diff*100)
	}
}

func TestFig11Shares(t *testing.T) {
	// Crypto share grows with record size and lands near the paper's
	// 54–74% band at 16 KiB.
	w := cleanPair()
	res := RunIperf(w, IperfTLS, 1, 256<<10, 16<<10, 2*time.Millisecond)
	requireClean(t, "tls", res.verdict, 0)
	n := float64(res.Records)
	rxC := res.Rcv.HostOpCycles(cycles.Decrypt) / n
	rxShare := rxC / (res.Rcv.HostCycles() / n)
	if rxShare < 0.45 || rxShare > 0.8 {
		t.Errorf("16K rx crypto share %.2f outside [0.45,0.8]", rxShare)
	}
}

func TestFig10Shape(t *testing.T) {
	// Large requests: offloadable share grows with depth and jumps when
	// the working set spills the LLC. Small requests: share stays small.
	big16 := RunFio(cleanStorage(), 256<<10, 16, 4*time.Millisecond)
	big256 := RunFio(cleanStorage(), 256<<10, 256, 4*time.Millisecond)
	small := RunFio(cleanStorage(), 4<<10, 64, 4*time.Millisecond)
	for _, r := range []*FioResult{big16, big256, small} {
		requireClean(t, "fio", r.verdict, r.failed)
	}

	share := func(r *FioResult) float64 {
		return (r.Ledger.HostOpCycles(cycles.Copy) + r.Ledger.HostOpCycles(cycles.CRC)) /
			r.Ledger.HostCycles()
	}
	if s := share(small); s > 0.2 {
		t.Errorf("4K offloadable share %.2f too large", s)
	}
	s16, s256 := share(big16), share(big256)
	if s16 < 0.3 {
		t.Errorf("256K@16 share %.2f too small", s16)
	}
	if s256 <= s16 {
		t.Errorf("LLC spill did not raise the share: %.2f <= %.2f", s256, s16)
	}
}

func TestFig12Shape(t *testing.T) {
	// The NVMe-TCP offload improves C1 single-core throughput, more for
	// bigger files, and reduces busy cores at the drive's rate.
	gain := func(size int) (float64, float64) {
		var one [2]float64
		var busy [2]float64
		for i, off := range []bool{false, true} {
			w := NewStorageWorld(StorageOpts{NVMePlace: off, NVMeCRC: off, TargetTxOffload: true})
			res := RunHTTPC1(w, appsim.ModePlain, 16, size, 3*time.Millisecond)
			requireClean(t, fmt.Sprintf("%s offload=%v", sizeLabel(size), off), res.verdict, 0)
			one[i] = oneCoreGbps(&w.Model, res.Srv, res.Bytes, res.Elapsed, w.Model.DriveGbps())
			busy[i] = w.Model.BusyCores(res.Srv, res.Bytes, w.Model.DriveGbps())
		}
		return one[1] / one[0], busy[1] / busy[0]
	}
	smallGain, _ := gain(4 << 10)
	bigGain, bigBusy := gain(256 << 10)
	if bigGain <= smallGain {
		t.Errorf("offload gain should grow with file size: %.2f <= %.2f", bigGain, smallGain)
	}
	if bigGain < 1.2 {
		t.Errorf("256K offload gain %.2f too small", bigGain)
	}
	if bigBusy > 0.9 {
		t.Errorf("offload should cut busy cores at the drive rate: ratio %.2f", bigBusy)
	}
}

func TestFig13Ordering(t *testing.T) {
	// https < offload < offload+zc < http in single-core throughput.
	var one [4]float64
	for i, mode := range []appsim.Mode{appsim.ModeTLS, appsim.ModeTLSOffload, appsim.ModeTLSOffloadZC, appsim.ModePlain} {
		w := cleanPair()
		res := RunHTTPC2(w, mode, 16, 64<<10, time.Millisecond)
		requireClean(t, mode.String(), res.verdict, 0)
		one[i] = w.Model.SingleCoreGbps(res.Srv, res.Bytes)
	}
	for i := 1; i < 4; i++ {
		if one[i] <= one[i-1] {
			t.Errorf("ordering violated at step %d: %v", i, one)
		}
	}
	if r := one[2] / one[0]; r < 1.5 {
		t.Errorf("offload+zc/https = %.2f, want ≥1.5 (paper ≈2.7x at 256K)", r)
	}
}

func TestFig15Shape(t *testing.T) {
	// Redis-on-Flash over NVMe-TLS: the stacked offload raises the
	// single-core GET throughput, more for bigger values, and every value
	// arrives intact.
	gain := func(size int) float64 {
		var one [2]float64
		for i, off := range []bool{false, true} {
			w := NewStorageWorld(StorageOpts{OverTLS: true, NVMePlace: off, NVMeCRC: off})
			res := RunKV(w, 16, size, 2*time.Millisecond)
			requireClean(t, fmt.Sprintf("%s offload=%v", sizeLabel(size), off), res.verdict, 0)
			one[i] = oneCoreGbps(&w.Model, res.Srv, res.Bytes, res.Elapsed, w.Model.DriveGbps())
		}
		return one[1] / one[0]
	}
	small, big := gain(4<<10), gain(256<<10)
	if big <= small || big < 1.2 {
		t.Errorf("offload gain %.2f (4K) → %.2f (256K): want growing and ≥1.2 at 256K", small, big)
	}
}

func TestFig16SenderLossShape(t *testing.T) {
	// At 2% loss: offload within ~25% of tcp and well above software tls;
	// context recovery consumes PCIe but only a bounded amount.
	p := 0.02
	var gbps [3]float64
	var ctx, payload uint64
	for i, mode := range []IperfMode{IperfTCP, IperfTLSOffload, IperfTLS} {
		w := faultPair(netsim.FaultConfig{LossProb: p, Seed: int64(900 + i)}, netsim.FaultConfig{})
		res := RunIperf(w, mode, 16, 256<<10, 16<<10, 8*time.Millisecond)
		requireClean(t, mode.String(), res.verdict, 0)
		gbps[i] = oneCoreGbps(&w.Model, res.Snd, res.Bytes, res.Elapsed)
		if mode == IperfTLSOffload {
			ctx = res.Snd.PCIeBytes(cycles.CtxDMA)
			payload = res.Bytes
		}
	}
	if gbps[1] < gbps[0]*0.6 {
		t.Errorf("offload %.1f too far below tcp %.1f", gbps[1], gbps[0])
	}
	if gbps[1] < gbps[2]*1.3 {
		t.Errorf("offload %.1f not sufficiently above sw tls %.1f", gbps[1], gbps[2])
	}
	if ctx == 0 {
		t.Error("no context-recovery PCIe traffic under loss")
	}
	if float64(ctx) > 0.3*float64(payload) {
		t.Errorf("context DMA %.0f%% of payload — unreasonably high", 100*float64(ctx)/float64(payload))
	}
}

func TestFig17RecordClassification(t *testing.T) {
	w := faultPair(netsim.FaultConfig{LossProb: 0.02, Seed: 901}, netsim.FaultConfig{})
	res := RunIperf(w, IperfTLSOffload, 16, 256<<10, 16<<10, 8*time.Millisecond)
	requireClean(t, "offload", res.verdict, 0)
	total := res.TLS.RecordsRx
	if total == 0 {
		t.Fatal("no records")
	}
	full := float64(res.TLS.RxFullyOffloaded) / float64(total)
	if full < 0.2 || full > 0.99 {
		t.Errorf("fully-offloaded share %.2f implausible at 2%% loss", full)
	}
	if res.TLS.RxPartial == 0 {
		t.Error("no partial records under loss")
	}
	if res.RxEngine.ResyncRequests+res.RxEngine.Relocks == 0 {
		t.Error("no receive-context recoveries under loss")
	}
}

func TestFig19NoCliff(t *testing.T) {
	// Crossing the context-cache capacity must not collapse throughput.
	run := func(conns int) (float64, float64) {
		w := NewPairWorld(netsim.LinkConfig{Gbps: 100, Latency: 2 * time.Microsecond},
			nic.Config{CtxCacheFlows: 64})
		res := RunHTTPC2(w, appsim.ModeTLSOffloadZC, conns, 64<<10, time.Millisecond)
		requireClean(t, fmt.Sprintf("%d conns", conns), res.verdict, 0)
		miss := 0.0
		st := w.Srv.NIC.Stats()
		if st.CtxCacheHits+st.CtxCacheMiss > 0 {
			miss = float64(st.CtxCacheMiss) / float64(st.CtxCacheHits+st.CtxCacheMiss)
		}
		return w.Model.SingleCoreGbps(res.Srv, res.Bytes), miss
	}
	inCache, missIn := run(16)
	overCache, missOver := run(256)
	if missOver <= missIn {
		t.Errorf("cache misses did not grow: %.3f <= %.3f", missOver, missIn)
	}
	if overCache < inCache*0.5 {
		t.Errorf("throughput cliff past cache capacity: %.1f vs %.1f", overCache, inCache)
	}
}

func TestStorageWorldLedgerConservation(t *testing.T) {
	// Offloading moves work to the NIC; it must not destroy it: the NIC
	// processes at least the payload bytes the host no longer touches.
	w := NewStorageWorld(StorageOpts{NVMePlace: true, NVMeCRC: true, TargetTxOffload: true})
	res := RunFio(w, 64<<10, 8, 3*time.Millisecond)
	requireClean(t, "fio", res.verdict, res.failed)
	nicCRC := res.Ledger.Get(cycles.NIC, cycles.CRC).Bytes
	// Responses in flight at the window edges cause a small mismatch.
	if float64(nicCRC) < 0.95*float64(res.Bytes) {
		t.Errorf("NIC CRC'd %d bytes < 95%% of %d payload bytes", nicCRC, res.Bytes)
	}
}
