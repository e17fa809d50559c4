package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/blockdev"
)

func TestSelfTimeSubtractsChildren(t *testing.T) {
	// window[0,100] > app[10,60] > nic[20,30], nic[35,50]; nic[70,90] under window.
	spans := []span{
		{kind: spanWindow, parent: -1, start: 0, end: 100},
		{kind: spanAppTx, parent: 0, start: 10, end: 60},
		{kind: spanNicTx, parent: 1, start: 20, end: 30, arg: 1448},
		{kind: spanNicTx, parent: 1, start: 35, end: 50},
		{kind: spanNicTx, parent: 0, start: 70, end: 90, arg: 100},
	}
	tot := selfTimes(spans, 0)
	if got := tot[spanWindow].selfNs; got != 100-50-20 {
		t.Errorf("window self = %d, want 30 (children are direct only)", got)
	}
	if got := tot[spanAppTx].selfNs; got != 50-10-15 {
		t.Errorf("app self = %d, want 25", got)
	}
	nic := tot[spanNicTx]
	if nic.n != 3 || nic.selfNs != 45 || nic.argSum != 1548 || nic.argPos != 2 {
		t.Errorf("nic totals = %+v", nic)
	}
	// A cut-off drops spans that began before it but still charges their
	// duration to a surviving parent.
	if late := selfTimes(spans, 35)[spanNicTx]; late.n != 2 || late.selfNs != 35 {
		t.Errorf("after cut-off: %+v", late)
	}
}

func TestRecorderNesting(t *testing.T) {
	var nilRec *recorder
	nilRec.end(nilRec.begin(spanAppRx)) // the untraced path: must not panic
	r := newRecorder()
	a := r.begin(spanAppTx)
	b := r.beginArg(spanNicTx, 7)
	r.end(b)
	c := r.begin(spanNicTx)
	r.end(c)
	r.end(a)
	if r.spans[b].parent != a || r.spans[c].parent != a || r.spans[a].parent != -1 || r.open != -1 {
		t.Fatalf("bad nesting: %+v", r.spans)
	}
	var buf bytes.Buffer
	if err := writeChrome(&buf, r.spans, 0, "t"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.TraceEvents) != 3 {
		t.Fatalf("chrome trace does not load: %v (%d events)", err, len(doc.TraceEvents))
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{5, 1, 9, 3}, "ns")
	if s.Median != 4 || s.Min != 1 || s.Max != 9 || s.N != 4 {
		t.Errorf("even: %+v", s)
	}
	if s := summarize([]float64{2, 8, 5}, "ns"); s.Median != 5 {
		t.Errorf("odd: %+v", s)
	}
}

func TestVerifier(t *testing.T) {
	var c appCounters
	pat := payload(1, 100)
	v := &verifier{c: &c, pattern: pat, unit: 40}
	stream := append(append([]byte(nil), pat...), pat...)
	stream[130] ^= 1 // one bad byte in the fourth unit
	for _, cut := range [][2]int{{0, 33}, {33, 99}, {99, 100}, {100, 200}} {
		v.check(stream[cut[0]:cut[1]])
	}
	if c.ops != 5 || c.failed != 1 {
		t.Errorf("ops=%d failed=%d, want 5 and 1", c.ops, c.failed)
	}
	if c.bytes >= 200 || c.bytes < 160 {
		t.Errorf("bytes=%d: the mismatching chunk must not count as delivered", c.bytes)
	}
}

func TestPatternOK(t *testing.T) {
	const lba = 12345
	buf := make([]byte, 3*blockdev.BlockSize)
	for b := 0; b < 3; b++ {
		blockdev.Pattern(lba+uint64(b), 0, buf[b*blockdev.BlockSize:(b+1)*blockdev.BlockSize])
	}
	if !patternOK(lba, buf) {
		t.Fatal("patternOK rejects blockdev.Pattern's own output")
	}
	buf[len(buf)-1] ^= 1
	if patternOK(lba, buf) {
		t.Fatal("patternOK missed a flipped byte")
	}
}

func TestJudge(t *testing.T) {
	pps := metricSpec{"pps", "1/s", "higher", 0.10}
	tight := func(m float64) stat { return stat{Median: m, Min: m * 0.99, Max: m * 1.01, N: 5} }
	wide := func(m float64) stat { return stat{Median: m, Min: m * 0.8, Max: m * 1.2, N: 5} }
	for _, c := range []struct {
		name      string
		base, cur stat
		want      verdict
	}{
		{"same", tight(100), tight(101), verdictOK},
		{"slower beyond bound", tight(100), tight(85), verdictRegression},
		{"faster beyond bound", tight(100), tight(120), verdictImproved},
		{"within bound but spread too wide to tell", wide(100), wide(97), verdictUnresolved},
		{"wide but every new run beats every old run", wide(100), stat{Median: 200, Min: 150, Max: 250, N: 5}, verdictImproved},
	} {
		if _, got := judge(pps, c.base, c.cur); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	cpu := metricSpec{"ns_per_pkt", "ns", "lower", 0.10}
	if _, got := judge(cpu, tight(100), tight(115)); got != verdictRegression {
		t.Errorf("lower-is-better regression: %s", got)
	}
}

func TestFingerprintDiff(t *testing.T) {
	a := map[string]float64{"packets": 10, "steps": 5}
	if d := diffFingerprints(a, map[string]float64{"packets": 10, "steps": 5}); len(d) != 0 {
		t.Errorf("equal maps differ: %v", d)
	}
	if d := diffFingerprints(a, map[string]float64{"packets": 11, "extra": 1}); len(d) != 3 {
		t.Errorf("want changed, missing and unpinned keys reported, got %v", d)
	}
}

func names(ms []metricSpec) []string {
	var n []string
	for _, m := range ms {
		n = append(n, m.name)
	}
	sort.Strings(n)
	return n
}

func sameNames(t *testing.T, got map[string]metricValue, want []metricSpec) {
	t.Helper()
	var g []string
	for k := range got {
		g = append(g, k)
	}
	sort.Strings(g)
	w := names(want)
	if len(g) != len(w) {
		t.Fatalf("emitted %d metrics, declared %d:\n%v\n%v", len(g), len(w), g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("emitted %q where %q is declared", g[i], w[i])
		}
	}
}

// TestQuickSmoke runs every workload at smoke size and checks that exactly
// the declared end-to-end metrics come out, none zero, nothing failed.
func TestQuickSmoke(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.name, func(t *testing.T) {
			rep, err := untraced(wl, env{Seed: 3}, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			line := rep.line()
			if !line.Correct || line.Failed != 0 || line.Attempted == 0 || rep.Reps != 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d reps=%d", line.Correct, line.Attempted, line.Failed, rep.Reps)
			}
			sameNames(t, line.Metrics, endToEnd)
			for n, v := range line.Metrics {
				if !(v.Value > 0) {
					t.Errorf("%s = %v, want > 0", n, v.Value)
				}
			}
		})
	}
}

// TestQuickTraced runs the traced pipeline at smoke size: every declared
// per-layer metric is emitted, the trace loads, and the workloads separate
// the layers (plain TCP attributes nothing to crypto, CRC, or the engines).
func TestQuickTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the replays: a few seconds")
	}
	outDir = t.TempDir()
	rep, err := traced(workloadByName("iperf_tcp_unbatched"), env{Seed: 3}, true)
	if err != nil {
		t.Fatal(err)
	}
	line := rep.line()
	sameNames(t, line.Metrics, perLayer)
	for _, l := range []string{"gcm", "crc32c", "offload"} {
		if v := line.Metrics[l+".est_ns_per_pkt"].Value; v != 0 {
			t.Errorf("%s.est_ns_per_pkt = %v on plain TCP, want 0", l, v)
		}
	}
	for _, l := range []string{"netsim", "wire", "tcpip", "nic"} {
		if v := line.Metrics[l+".est_ns_per_pkt"].Value; !(v > 0) {
			t.Errorf("%s.est_ns_per_pkt = %v on plain TCP, want > 0", l, v)
		}
	}
	files, _ := filepath.Glob(filepath.Join(outDir, "trace_*.json"))
	if len(files) != 1 {
		t.Fatalf("want one trace file, got %v", files)
	}
	b, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("trace does not load: %v (%d events)", err, len(doc.TraceEvents))
	}
}
