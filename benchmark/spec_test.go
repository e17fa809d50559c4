package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON is the root BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []jsonWorkload `json:"workloads"`
	EndToEnd   []jsonMetric   `json:"end_to_end"`
	PerLayer   []jsonMetric   `json:"per_layer"`
}

type jsonWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func specJSON() benchmarkJSON {
	j := benchmarkJSON{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		j.Workloads = append(j.Workloads, jsonWorkload{w.name, w.why})
	}
	for _, m := range endToEnd {
		b := m.bound
		j.EndToEnd = append(j.EndToEnd, jsonMetric{m.name, m.unit, m.better, &b})
	}
	for _, m := range perLayer {
		j.PerLayer = append(j.PerLayer, jsonMetric{m.name, m.unit, m.better, nil})
	}
	return j
}

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json and the tables in
// spec.go identical: every name the file declares is emitted and vice
// versa. Run with UPDATE_BENCHMARK_JSON=1 to regenerate the file.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := json.MarshalIndent(specJSON(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	const path = "../BENCHMARK.json"
	if os.Getenv("UPDATE_BENCHMARK_JSON") != "" {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("BENCHMARK.json is out of date with spec.go; rerun with UPDATE_BENCHMARK_JSON=1\n--- want\n%s", want)
	}
}

// TestSpecLimits checks the contract's naming and size rules.
func TestSpecLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("%s name %q breaks the charset/length rule", kind, n)
		}
		if seen[n] {
			t.Errorf("%s name %q is used twice", kind, n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range workloads {
		check("workload", w.name)
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.name, len(w.why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	setup := false
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		check("metric", m.name)
		if !unit.MatchString(m.unit) {
			t.Errorf("metric %s: unit %q breaks the charset/length rule", m.name, m.unit)
		}
		if m.better != "higher" && m.better != "lower" {
			t.Errorf("metric %s: better=%q", m.name, m.better)
		}
		if m.bound < 0 || m.bound > 0.25 {
			t.Errorf("metric %s: bound %v outside 0..0.25", m.name, m.bound)
		}
		if m.name == "setup_s" {
			setup = m.unit == "s" && m.better == "lower"
			for _, o := range endToEnd {
				if o.bound > m.bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", o.name, o.bound)
				}
			}
		}
	}
	if !setup {
		t.Error("end-to-end metrics must include setup_s in s, lower is better")
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", runSeconds)
	}
}
