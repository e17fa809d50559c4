// Command experiments regenerates the paper's tables and figures from the
// simulated testbeds. With no arguments it runs everything in paper order;
// pass experiment ids (e.g. `experiments fig13 tab4`) to run a subset, or
// -list to enumerate them.
//
// Observability: -trace writes a Chrome trace_event JSON of the run
// (load it at chrome://tracing or https://ui.perfetto.dev), -metrics-out
// dumps every registered counter and latency histogram, and
// -sample-every/-series-out sample every counter on a virtual-clock
// cadence into rate/delta time series (CSV by default; .json or .prom
// extensions select the JSON or Prometheus text exposition writers).
// -cpuprofile and -memprofile profile the simulator itself over the
// experiments run (read them with `go tool pprof -top`); the wall time of
// each experiment is the `[id done in ...]` line on stderr.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/telemetry"
	"repro/internal/telemetry/sampler"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	tracePath := flag.String("trace", "", "write Chrome trace_event JSON to this file")
	metricsPath := flag.String("metrics-out", "", "write counters and histograms to this file (- for stdout)")
	traceCap := flag.Int("trace-cap", telemetry.DefaultTraceCap, "trace ring capacity in events (oldest dropped beyond this)")
	sampleEvery := flag.Duration("sample-every", 0, "virtual-clock counter sampling cadence (0 disables; e.g. 100us)")
	seriesPath := flag.String("series-out", "", "write sampled time series to this file (- for stdout; .json/.prom select format, default CSV)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiments here (go tool pprof -top)")
	memProfile := flag.String("memprofile", "", "write an allocation profile of the experiments here (go tool pprof -sample_index=alloc_objects -top)")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-7s %s\n", e.ID, e.Title)
		}
		return
	}

	if (*seriesPath != "") != (*sampleEvery > 0) {
		fmt.Fprintln(os.Stderr, "-sample-every and -series-out must be given together")
		os.Exit(2)
	}

	var sys *telemetry.System
	if *tracePath != "" || *metricsPath != "" || *sampleEvery > 0 {
		sys = telemetry.NewSystem(*traceCap)
		experiments.UseTelemetry(sys)
	}
	var smp *sampler.Sampler
	if *sampleEvery > 0 {
		smp = sampler.New(sys.Reg, sampler.Config{Interval: *sampleEvery})
		experiments.UseSampler(smp)
	}

	var todo []experiments.Experiment
	if flag.NArg() == 0 {
		todo = experiments.All()
	} else {
		for _, id := range flag.Args() {
			e, ok := experiments.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", id)
				os.Exit(2)
			}
			todo = append(todo, e)
		}
	}

	var cpuFile *os.File
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fatal("cpuprofile", err)
		}
		cpuFile = f
	}
	if *memProfile != "" {
		// Every allocation, not a sample, so the profile counts
		// allocations per packet exactly. That slows the run several
		// times over: name one experiment, and take the CPU profile and
		// the wall times from a run without this flag.
		runtime.MemProfileRate = 1
	}

	for _, e := range todo {
		start := time.Now()
		for _, t := range e.Run() {
			t.Fprint(os.Stdout)
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if cpuFile != nil {
		pprof.StopCPUProfile()
		if err := cpuFile.Close(); err != nil {
			fatal("cpuprofile", err)
		}
	}
	if *memProfile != "" {
		if err := writeOut(*memProfile, func(w io.Writer) error {
			runtime.GC() // flush the last cycle's allocations into the profile
			return pprof.Lookup("allocs").WriteTo(w, 0)
		}); err != nil {
			fatal("memprofile", err)
		}
	}

	if sys == nil {
		return
	}
	if *tracePath != "" {
		if err := writeOut(*tracePath, sys.Trace.WriteChrome); err != nil {
			fatal("trace", err)
		}
		if n := sys.Trace.DroppedEvents(); n > 0 {
			fmt.Fprintf(os.Stderr, "trace: ring overflowed; %d oldest events dropped (raise -trace-cap)\n", n)
		}
		fmt.Fprintf(os.Stderr, "[trace: %d events -> %s]\n", sys.Trace.Len(), *tracePath)
	}
	if *metricsPath != "" {
		if err := writeOut(*metricsPath, func(w io.Writer) error {
			sys.Reg.Snapshot().Fprint(w)
			return nil
		}); err != nil {
			fatal("metrics", err)
		}
	}
	if smp != nil {
		write := smp.WriteCSV
		switch {
		case strings.HasSuffix(*seriesPath, ".json"):
			write = smp.WriteJSON
		case strings.HasSuffix(*seriesPath, ".prom"):
			write = smp.WriteProm
		}
		if err := writeOut(*seriesPath, write); err != nil {
			fatal("series", err)
		}
	}
}

// writeOut runs write against the file at path ("-" is stdout) and returns
// the first error of creating, writing, flushing or closing it: a full disk
// must not leave a truncated file behind an exit status of 0.
func writeOut(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func fatal(what string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", what, err)
	os.Exit(1)
}
