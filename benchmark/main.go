// Command benchmark is the repo's benchmark: four fixed-work simulator
// workloads, seven end-to-end metrics each (plus attempted/failed counts),
// and — in a separate traced run — a per-layer ledger of where the host
// time goes, measured from outside the simulator packages. BENCHMARK.json
// at the repo root is the machine-readable contract; README.md in this
// directory explains every number.
//
//	go run ./benchmark -workload iperf_tls_offload              # end-to-end
//	go run ./benchmark -workload iperf_tls_offload -trace 1     # ledger + Chrome trace
//	go run ./benchmark -compare a.json b.json                   # two -out files
//
// The modeled results (sim_*) and every count are deterministic and checked
// against expected.json; the host-side numbers are medians over
// repetitions of the same fixed work on fresh worlds.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/netsim"
)

// expectedPath is where -update-expected writes; the same file is embedded
// at build time for checking.
const expectedPath = "benchmark/expected.json"

//go:embed expected.json
var expectedJSON []byte

// pinned is expected.json: workload → seed → fingerprint.
type pinned map[string]map[string]map[string]float64

// env is the header every output carries, so two result files can be told
// apart when they should not be compared.
type env struct {
	GoVersion    string `json:"go_version"`
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	ShardWorkers int    `json:"shard_workers"`
	Seed         int64  `json:"seed"`
	Commit       string `json:"commit"`
}

// report is one workload's result as written by -out and read by -compare.
type report struct {
	Env       env                `json:"env"`
	Workload  string             `json:"workload"`
	Reps      int                `json:"reps"`
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Metrics   map[string]stat    `json:"metrics"`
	Counts    map[string]float64 `json:"counts"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line reduces the report to the result line: each metric's median.
func (r *report) line() resultLine {
	l := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]metricValue{}}
	for name, s := range r.Metrics {
		l.Metrics[name] = metricValue{s.Median, s.Unit}
	}
	return l
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed for generated inputs (payloads, fio LBAs, churn sizes and link faults)")
	seconds := flag.Float64("seconds", runSeconds, "keep starting repetitions while they fit in this many wall seconds")
	trace := flag.Int("trace", 0, "1: traced run (per-layer ledger, Chrome trace under "+outDir+"); 0: end-to-end metrics")
	quick := flag.Bool("quick", false, "smoke size: 1 ms windows, one repetition, no expected.json check")
	out := flag.String("out", "", "merge this workload's report into a JSON file (input to -compare)")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments; non-zero exit on a regression")
	update := flag.Bool("update-expected", false, "pin this run's fingerprint in "+expectedPath+" instead of checking it")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: benchmark -compare base.json new.json")
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	wl := workloadByName(*workload)
	if wl == nil {
		fatal("unknown -workload %q; choose one of %s", *workload, strings.Join(workloadNames(), ", "))
	}
	if *out != "" && *trace == 1 {
		fatal("-out records end-to-end runs for -compare; it does not apply to -trace 1")
	}

	// Two cores at most: the event loop is serial and ShardRun fans out to
	// GOMAXPROCS workers by default, so more cores would change what the
	// default measures rather than measure it better.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	e := env{
		GoVersion:    runtime.Version(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		ShardWorkers: netsim.New().ShardWorkers(),
		Seed:         *seed,
		Commit:       commit(),
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s seed=%d trace=%d | %s nproc=%d GOMAXPROCS=%d shard_workers=%d commit=%s\n",
		wl.name, e.Seed, *trace, e.GoVersion, e.NumCPU, e.GOMAXPROCS, e.ShardWorkers, e.Commit)

	replay := fmt.Sprintf("go run ./benchmark -workload %s -seed %d -trace %d", wl.name, *seed, *trace)
	if *quick {
		replay += " -quick"
	}
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "benchmark: FAILED workload=%s seed=%d: %v\nreplay with: %s\n", wl.name, *seed, err, replay)
		emit(resultLine{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}})
		os.Exit(1)
	}

	var rep report
	var err error
	if *trace == 1 {
		rep, err = traced(wl, e, *quick)
	} else {
		rep, err = untraced(wl, e, *seconds, *quick)
	}
	if err != nil {
		fail(err)
	}
	if !*quick {
		if *update {
			err = updateExpected(wl.name, *seed, rep.Counts)
		} else {
			err = checkExpected(wl.name, *seed, rep.Counts)
		}
		if err != nil {
			fail(err)
		}
	}
	if *out != "" {
		if err := mergeReport(*out, rep); err != nil {
			fail(err)
		}
	}
	emit(rep.line())
	if !rep.Correct {
		fmt.Fprintf(os.Stderr, "benchmark: FAILED workload=%s seed=%d: %d of %d operations failed\nreplay with: %s\n",
			wl.name, *seed, rep.Failed, rep.Attempted, replay)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	return n
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func emit(l resultLine) {
	b, err := json.Marshal(l)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(b))
}

// untraced measures the end-to-end metrics: repetitions of the workload's
// fixed window on fresh worlds, started while another one still fits in
// the time budget, each checked against the first.
func untraced(wl *workloadSpec, e env, seconds float64, quick bool) (report, error) {
	start := time.Now()
	var reps []repResult
	for {
		r, err := runRep(wl, e.Seed, nil, repOpts{quick: quick})
		if err != nil {
			return report{}, fmt.Errorf("repetition %d: %w", len(reps)+1, err)
		}
		if len(reps) > 0 {
			if d := diffFingerprints(r.fp, reps[0].fp); len(d) > 0 {
				return report{}, fmt.Errorf("repetition %d differs from repetition 1:\n  %s",
					len(reps)+1, strings.Join(d, "\n  "))
			}
		}
		reps = append(reps, r)
		fmt.Fprintf(os.Stderr, "  rep %d: setup %.3fs window %.3fs %.0f pkt/s %.0f cpu-ns/pkt %.3f allocs/pkt gc=%d\n",
			len(reps), r.setupS, r.wallS, r.e2e("wall_pps"), r.e2e("cpu_ns_per_pkt"), r.e2e("allocs_per_pkt"), r.gcCycles)
		elapsed := time.Since(start).Seconds()
		if quick || elapsed+elapsed/float64(len(reps)) > seconds {
			break
		}
	}

	rep := report{Env: e, Workload: wl.name, Reps: len(reps), Metrics: map[string]stat{}, Counts: reps[0].fp}
	for _, r := range reps {
		rep.Attempted += r.attempted
		rep.Failed += r.failed
	}
	for _, m := range endToEnd {
		vals := make([]float64, len(reps))
		for i := range reps {
			vals[i] = reps[i].e2e(m.name)
		}
		s := summarize(vals, m.unit)
		rep.Metrics[m.name] = s
		fmt.Fprintf(os.Stderr, "  %-20s %16.4f %-6s (min %.4f max %.4f n=%d)\n", m.name, s.Median, m.unit, s.Min, s.Max, s.N)
	}
	fmt.Fprintf(os.Stderr, "  %-20s %16.6f        (%d of %d operations failed)\n",
		"fail_share", ratio(float64(rep.Failed), float64(rep.Attempted)), rep.Failed, rep.Attempted)
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// traced runs the per-layer ledger and reports every per_layer metric.
func traced(wl *workloadSpec, e env, quick bool) (report, error) {
	m, plain, err := runTraced(wl, e.Seed, quick, os.Stderr)
	if err != nil {
		return report{}, err
	}
	rep := report{Env: e, Workload: wl.name, Reps: 1, Metrics: map[string]stat{}, Counts: plain.fp,
		Attempted: plain.attempted, Failed: plain.failed, Correct: plain.failed == 0}
	for _, s := range perLayer {
		rep.Metrics[s.name] = summarize([]float64{m[s.name]}, s.unit)
	}
	return rep, nil
}

func seedKey(seed int64) string { return fmt.Sprint(seed) }

// checkExpected compares the run's fingerprint with the pinned one. Seeds
// that are not pinned are only checked repetition against repetition.
func checkExpected(workload string, seed int64, got map[string]float64) error {
	var p pinned
	if err := json.Unmarshal(expectedJSON, &p); err != nil {
		return fmt.Errorf("%s: %w", expectedPath, err)
	}
	want, ok := p[workload][seedKey(seed)]
	if !ok {
		return nil
	}
	if d := diffFingerprints(got, want); len(d) > 0 {
		return fmt.Errorf("deterministic results differ from %s (rerun with -update-expected if the simulation was meant to change):\n  %s",
			expectedPath, strings.Join(d, "\n  "))
	}
	return nil
}

func updateExpected(workload string, seed int64, got map[string]float64) error {
	p := pinned{}
	if b, err := os.ReadFile(expectedPath); err == nil {
		if err := json.Unmarshal(b, &p); err != nil {
			return fmt.Errorf("%s: %w", expectedPath, err)
		}
	}
	if p[workload] == nil {
		p[workload] = map[string]map[string]float64{}
	}
	p[workload][seedKey(seed)] = got
	return writeJSON(expectedPath, p)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// mergeReport adds rep to the workload → report map stored at path.
func mergeReport(path string, rep report) error {
	all := map[string]report{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	all[rep.Workload] = rep
	return writeJSON(path, all)
}
