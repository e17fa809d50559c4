package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// VirtClock enforces the simulator's determinism substrate — no real
// time, no real threads: all time must come from the netsim virtual
// clock, all randomness from an explicitly seeded generator, and all
// execution from the one event-loop goroutine. In non-main packages it
// bans the wall clock and timers (time.Now, Since, Until, Sleep, After,
// AfterFunc, Tick, NewTimer, NewTicker), the global math/rand source
// (every package-level function except the New/NewSource/NewZipf
// constructors), and the go statement. Package main is exempt: entry
// points legitimately measure real elapsed time for operator-facing
// output, and nothing inside a simulated world lives there.
var VirtClock = &Analyzer{
	Name: "virtclock",
	Doc:  "ban wall-clock time, seedless global math/rand, and go statements in simulator packages",
	Run:  runVirtClock,
}

// bannedTime is the wall-clock/timer surface of package time. Types and
// constants (time.Duration, time.Millisecond) remain fine: virtual time
// is expressed in time.Duration throughout.
var bannedTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// allowedRand lists the math/rand constructors; everything else at
// package level draws from (or reseeds) the shared global source.
var allowedRand = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

func runVirtClock(pass *Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	// Iterate uses (not syntax) so aliased and dot-imports are caught too.
	idents := make([]*ast.Ident, 0, len(pass.TypesInfo.Uses))
	for id := range pass.TypesInfo.Uses {
		idents = append(idents, id)
	}
	sort.Slice(idents, func(i, j int) bool { return idents[i].Pos() < idents[j].Pos() })
	for _, id := range idents {
		fn, _ := calledFunc(pass.TypesInfo, id)
		if fn == nil {
			continue
		}
		if fn.Type().(*types.Signature).Recv() != nil {
			continue // methods (e.g. (*rand.Rand).Intn) are always fine
		}
		switch fn.Pkg().Path() {
		case "time":
			if bannedTime[fn.Name()] {
				pass.Reportf(id.Pos(),
					"time.%s reads the wall clock; simulator code must take time from the netsim virtual clock", fn.Name())
			}
		case "math/rand", "math/rand/v2":
			if !allowedRand[fn.Name()] {
				pass.Reportf(id.Pos(),
					"rand.%s draws from the global source; use an explicitly seeded rand.New(rand.NewSource(seed)) so runs stay reproducible", fn.Name())
			}
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(),
					"go statement starts a real thread; a simulated world runs on the event loop's one goroutine, which is what makes runs byte-identical at any GOMAXPROCS")
			}
			return true
		})
	}
	return nil
}
