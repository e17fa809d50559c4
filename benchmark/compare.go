package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// -compare: the tool behind "two runs of the same commit agree" and behind
// every later before/after claim. For each workload and end-to-end metric
// it sets the change in medians against the metric's own bound.

// verdict classifies one metric's change from base to new.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictImproved   verdict = "improved"
	verdictUnresolved verdict = "unresolved"
	verdictRegression verdict = "REGRESSION"
)

// judge compares two summaries of a metric. worse is the relative change
// of the median in the metric's bad direction (negative when it improved).
// A worsening beyond the bound is a regression. Otherwise, when either
// run's own min–max spread is wider than the bound and the two ranges
// overlap, the runs cannot resolve a change of the bound's size and the
// metric is unresolved rather than unchanged.
func judge(m metricSpec, base, cur stat) (worse float64, v verdict) {
	worse = (cur.Median - base.Median) / base.Median
	lo, hi := base, cur // for "lower": cur entirely below base is all-better
	if m.better == "higher" {
		worse = -worse
		lo, hi = cur, base
	}
	allBetter := hi.Max < lo.Min
	spread := max((base.Max-base.Min)/base.Median, (cur.Max-cur.Min)/cur.Median)
	switch {
	case worse > m.bound:
		return worse, verdictRegression
	case spread > m.bound && !allBetter:
		return worse, verdictUnresolved
	case -worse > m.bound:
		return worse, verdictImproved
	}
	return worse, verdictOK
}

func readReports(path string) (map[string]report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var all map[string]report
	if err := json.Unmarshal(b, &all); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return all, nil
}

// runCompare prints the comparison and returns the process exit code: 1 if
// any metric regressed beyond its bound or an input was unusable.
func runCompare(w io.Writer, basePath, newPath string) int {
	base, err := readReports(basePath)
	if err == nil {
		var cur map[string]report
		if cur, err = readReports(newPath); err == nil {
			return compareReports(w, base, cur)
		}
	}
	fmt.Fprintf(w, "compare: %v\n", err)
	return 1
}

func compareReports(w io.Writer, base, cur map[string]report) int {
	code := 0
	for _, wl := range workloads {
		b, okB := base[wl.name]
		c, okC := cur[wl.name]
		if !okB || !okC {
			fmt.Fprintf(w, "%s: missing from one input, skipped\n", wl.name)
			continue
		}
		fmt.Fprintf(w, "%s (base n=%d, new n=%d)\n", wl.name, b.Reps, c.Reps)
		if be, ce := b.Env, c.Env; be.GoVersion != ce.GoVersion || be.NumCPU != ce.NumCPU ||
			be.GOMAXPROCS != ce.GOMAXPROCS || be.ShardWorkers != ce.ShardWorkers || be.Seed != ce.Seed {
			fmt.Fprintf(w, "  warning: environments differ: %+v vs %+v\n", be, ce)
		}
		if c.Failed > 0 || !c.Correct {
			fmt.Fprintf(w, "  %-20s %d of %d operations failed  %s\n", "fail_share", c.Failed, c.Attempted, verdictRegression)
			code = 1
		}
		for _, m := range endToEnd {
			bs, cs := b.Metrics[m.name], c.Metrics[m.name]
			if bs.N == 0 || cs.N == 0 {
				fmt.Fprintf(w, "  %-20s missing\n", m.name)
				code = 1
				continue
			}
			worse, v := judge(m, bs, cs)
			if v == verdictRegression {
				code = 1
			}
			fmt.Fprintf(w, "  %-20s %14.4f -> %14.4f %-6s %+7.2f%% worse (bound %.1f%%)  %s\n",
				m.name, bs.Median, cs.Median, m.unit, 100*worse, 100*m.bound, v)
		}
		if d := diffFingerprints(c.Counts, b.Counts); len(d) > 0 {
			fmt.Fprintf(w, "  counts: %d deterministic values differ — the simulation itself changed:\n", len(d))
			for _, line := range d[:min(len(d), 10)] {
				fmt.Fprintf(w, "    %s\n", line)
			}
		} else {
			fmt.Fprintf(w, "  counts: identical (%d values)\n", len(b.Counts))
		}
	}
	return code
}
