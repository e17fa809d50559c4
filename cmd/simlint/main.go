// Command simlint is the repository's invariant linter: a multichecker
// driver for the analyzers in internal/analysis. It mechanically enforces
// the contracts DESIGN.md's "Invariants as analyzers" section maps out —
// virtual-clock purity, seeded randomness and no go statements
// (virtclock), nil-safe telemetry hooks (nilhook), registry-mergeable and
// actually-registered Stats structs (statsreg), checksum-safe frame
// mutation (wiremut), canonical series names (seriesname), pool-only frame
// allocation (framepool), and allocation-free hot paths (hotalloc).
//
// Usage:
//
//	go run ./cmd/simlint ./...
//	go run ./cmd/simlint -json ./...
//	go run ./cmd/simlint -baseline lint.baseline ./...
//	go run ./cmd/simlint -baseline lint.baseline -update-baseline ./...
//	go run ./cmd/simlint -list
//
// A finding is silenced either by a reasoned source annotation —
//
//	//lint:ignore <analyzer> <why this violation is sanctioned>
//
// on the offending line or the line above — or by an entry in the
// committed baseline file, which freezes existing findings so a new
// analyzer can land strict on new code only. Suppressed and baselined
// findings stay counted in the summary and in the -json report; a
// directive without a reason, or naming an unknown analyzer, is itself
// a finding.
//
// Exit status is 0 when clean, 1 when unsuppressed diagnostics were
// reported, and 2 when loading or type-checking failed. `make lint`
// (part of `make check`) runs it over the whole module with the
// committed baseline.
//
// Run it over ./... rather than package subsets: statsreg is a
// whole-program check, so a subset that defines a Stats struct but omits
// the package that registers it reports a false "never registered".
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run())
}

func run() int {
	list := flag.Bool("list", false, "list the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit the diagnostics as a JSON report on stdout")
	baselinePath := flag.String("baseline", "", "baseline `file` of accepted diagnostics (see -update-baseline)")
	updateBaseline := flag.Bool("update-baseline", false, "rewrite the -baseline file from this run's findings and exit clean")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: simlint [-list] [-json] [-baseline file [-update-baseline]] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.All {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *updateBaseline && *baselinePath == "" {
		fmt.Fprintf(os.Stderr, "simlint: -update-baseline requires -baseline\n")
		return 2
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := analysis.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		return 2
	}
	diags := analysis.Run(prog, analysis.All)

	// Suppression first: a //lint:ignore'd finding never reaches the
	// baseline, so baselines hold only the unargued backlog. Malformed
	// directives fold in as ordinary findings (and are themselves neither
	// suppressible nor baselined — an ignore must not excuse a broken
	// ignore).
	dirs, malformed := analysis.ParseDirectives(prog, analysis.All)
	kept, suppressed := analysis.ApplySuppressions(prog, diags, dirs)

	if *updateBaseline {
		if err := analysis.WriteBaseline(*baselinePath, prog, kept); err != nil {
			fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "simlint: wrote %d entr%s to %s\n",
			len(kept), plural(len(kept), "y", "ies"), *baselinePath)
		return 0
	}

	var baselined []analysis.Diagnostic
	if *baselinePath != "" {
		b, err := analysis.LoadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
			return 2
		}
		kept, baselined = b.Apply(prog, kept)
	}

	kept = append(kept, malformed...)
	analysis.SortDiagnostics(prog, kept)

	if *jsonOut {
		report := analysis.BuildReport(prog, kept, suppressed, baselined)
		if err := report.Encode(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range kept {
			fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", prog.Fset.Position(d.Pos), d.Message, d.Analyzer)
		}
	}
	if len(kept) > 0 || len(suppressed) > 0 || len(baselined) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d violation(s), %d suppressed, %d baselined\n",
			len(kept), len(suppressed), len(baselined))
	}
	if len(kept) > 0 {
		return 1
	}
	return 0
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
