package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenTraceRun performs the fixed-seed scenario behind the golden trace:
// one offloaded iperf stream over a lossy link, small enough that the
// whole timeline fits the ring. Everything in it is seeded, so two runs
// must produce byte-identical trace JSON.
func goldenTraceRun() *telemetry.System {
	sys := telemetry.NewSystem(1 << 14)
	UseTelemetry(sys)
	defer UseTelemetry(nil)
	w := NewPairWorld(netsim.LinkConfig{
		Gbps:    1,
		Latency: 5 * time.Microsecond,
		AtoB:    netsim.FaultConfig{LossProb: 0.03},
	}, nic.Config{})
	RunIperf(w, IperfTLSOffload, 1, 16<<10, 4<<10, 500*time.Microsecond)
	return sys
}

func TestGoldenChromeTrace(t *testing.T) {
	var first, second bytes.Buffer
	run := goldenTraceRun()
	if run.Trace.DroppedEvents() != 0 {
		t.Fatalf("golden scenario overflowed its ring (%d events dropped); the fixture must capture the whole timeline", run.Trace.DroppedEvents())
	}
	if err := run.Trace.WriteChrome(&first); err != nil {
		t.Fatal(err)
	}
	if err := goldenTraceRun().Trace.WriteChrome(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("two identically-seeded runs produced different trace JSON")
	}

	// The recovery story must be on the timeline: offload FSM transitions,
	// the resync round trip, and the packet/DMA events they interleave with.
	got := first.String()
	for _, want := range []string{
		`"name":"pkt.tx"`,
		`"name":"pkt.rx"`,
		`"name":"pkt.drop.loss"`,
		`"name":"dma.rx"`,
		`"name":"tcp.retransmit"`,
		`"name":"rx.searching"`,
		`"name":"rx.tracking"`,
		`"name":"rx.offloading"`,
		`"name":"resync.req"`,
		`"name":"resync.confirm"`,
		`"name":"tls.rec.offloaded"`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("trace missing %s", want)
		}
	}

	compareGolden(t, "trace_golden.json", first.Bytes())
}

// compareGolden holds got to testdata/name byte for byte; -update rewrites
// the file first.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (run with -update after intended changes)", golden)
	}
}

// TestTablesGolden pins what cmd/experiments prints for fifteen quick
// experiments, byte for byte. Between them they cover what
// benchmark/expected.json does not: the motivation figures and tables (fig2,
// tab1, fig3, fig4), the per-read and per-record cycle splits (fig10,
// fig11), the software-TLS arm and the offload-over-software speedup of
// §6.1 (sec61's rows), the §6.2 emulation arms, the receive-recovery and
// magic-pattern ablations' counters, the §6.3 request/response
// applications: HTTP over the NVMe store, plain (fig12) and TLS (fig14),
// the key-value path (fig15) and the single-connection latency path
// (tab4), and connection churn over the context cache (churn).
func TestTablesGolden(t *testing.T) {
	var got bytes.Buffer
	for _, id := range []string{
		"fig2", "tab1", "fig3", "fig4", "fig10", "fig11", "sec61", "sec62",
		"abl-recovery", "abl-magic", "fig12", "fig14", "fig15", "tab4", "churn",
	} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("unknown experiment %q", id)
		}
		for _, tab := range e.Run() {
			tab.Fprint(&got)
		}
	}
	compareGolden(t, "tables_golden.txt", got.Bytes())
}
