package experiments

// The determinism ground rule (DESIGN.md invariant 13): a simulated world
// runs on one goroutine with one virtual clock and seeded randomness, so
// one seeded world must render byte-identical telemetry — the full
// registry snapshot and the Chrome trace JSON — run after run, no matter
// how many OS threads the runtime schedules (GOMAXPROCS). Any leak of
// host state into counters, RNG draw order, or trace emission shows up
// here as a byte diff.

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/telemetry"
)

// determinismRun executes one fixed-seed chaos world — four RSS queues,
// loss and reordering on the wire, offloaded ktls streams — and returns
// the rendered metrics snapshot and trace bytes.
func determinismRun() (metrics, trace []byte) {
	sys := telemetry.NewSystem(1 << 16)
	UseTelemetry(sys)
	defer UseTelemetry(nil)
	w := NewPairWorld(netsim.LinkConfig{
		Gbps:    10,
		Latency: 2 * time.Microsecond,
		AtoB:    netsim.FaultConfig{LossProb: 0.02, ReorderProb: 0.01},
	}, nic.Config{Queues: 4, CtxCacheFlows: 64})
	RunIperf(w, IperfTLSOffload, 4, 32<<10, 4<<10, 800*time.Microsecond)
	w.FlushTelemetry()
	var mbuf, tbuf bytes.Buffer
	sys.Reg.Snapshot().Fprint(&mbuf)
	if err := sys.Trace.WriteChrome(&tbuf); err != nil {
		panic(err)
	}
	return mbuf.Bytes(), tbuf.Bytes()
}

// TestShardedDeterminism runs the seeded multi-queue world twice at the
// ambient GOMAXPROCS and once each at GOMAXPROCS 1 and 8, and requires
// byte-identical output every time.
func TestShardedDeterminism(t *testing.T) {
	baseMetrics, baseTrace := determinismRun()
	if len(baseTrace) == 0 || len(baseMetrics) == 0 {
		t.Fatal("baseline run rendered no telemetry")
	}
	// The scenario must actually exercise the batched path: the poll-batch
	// histograms exist and the NIC recorded polled frames and doorbells.
	snap := string(baseMetrics)
	for _, want := range []string{"batch.rx_frames", "batch.tx_pkts", "RxPolledFrames", "TxDoorbells"} {
		if !strings.Contains(snap, want) {
			t.Fatalf("baseline snapshot missing %q — scenario is not driving the batched hot path", want)
		}
	}
	ambient := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(ambient)
	for _, gmp := range []int{ambient, 1, 8} {
		runtime.GOMAXPROCS(gmp)
		m, tr := determinismRun()
		if !bytes.Equal(m, baseMetrics) {
			t.Errorf("GOMAXPROCS=%d: metrics snapshot diverged from baseline", gmp)
		}
		if !bytes.Equal(tr, baseTrace) {
			t.Errorf("GOMAXPROCS=%d: chrome trace diverged from baseline", gmp)
		}
	}
}
