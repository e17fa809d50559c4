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
// Each finding prints as `file:line:col: message [analyzer]`, followed by
// a summary line, `simlint: N violation(s)`. A finding cannot be
// silenced, only fixed: there is no suppression directive.
//
// Exit status is 0 when clean, 1 when diagnostics were reported, and 2
// when loading or type-checking failed. `make lint` (part of `make
// check`) runs it over the whole module.
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
	diags := analysis.Run(prog, analysis.All)
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", prog.Fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	fmt.Fprintf(os.Stderr, "simlint: %d violation(s)\n", len(diags))
	if len(diags) > 0 {
		return 1
	}
	return 0
}
