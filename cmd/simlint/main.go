// Command simlint is the repository's invariant linter: a multichecker
// driver for the analyzers in internal/analysis. It mechanically enforces
// the contracts DESIGN.md's "Invariants as analyzers" section maps out —
// virtual-clock purity, seeded randomness and no go statements
// (virtclock), Stats structs that are registered or merged (statsreg),
// checksum-safe frame mutation (wiremut), and allocation-free, pool-only
// hot paths (hotalloc).
//
// Usage:
//
//	go run ./cmd/simlint ./...
//	go run ./cmd/simlint -list
//
// The one way to silence a finding is a reasoned source annotation,
//
//	//lint:ignore <analyzer> <why this violation is sanctioned>
//
// on the offending line or the line above. Suppressed findings stay
// counted in the summary; a directive without a reason, or naming an
// unknown analyzer, is itself a finding.
//
// Exit status is 0 when clean, 1 when unsuppressed diagnostics were
// reported, and 2 when loading or type-checking failed. `make lint`
// (part of `make check`) runs it over the whole module.
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
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: simlint [-list] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.All {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return 0
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
	kept, suppressed := analysis.Lint(prog, analysis.All)
	for _, d := range kept {
		fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", prog.Fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	if len(kept) > 0 || len(suppressed) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d violation(s), %d suppressed\n", len(kept), len(suppressed))
	}
	if len(kept) > 0 {
		return 1
	}
	return 0
}
