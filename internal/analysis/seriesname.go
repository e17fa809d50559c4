package analysis

import (
	"go/ast"
	"go/token"
	"regexp"
	"strconv"
)

// SeriesName keeps telemetry naming on the dotted-lowercase convention
// (DESIGN.md invariant 12): every sampler series, histogram, and counter
// prefix that reaches exports is spelled `[a-z0-9._]` (e.g.
// "w1.srv.nic.lc.wire_ns.q0"), so downstream tooling — the sampler's
// CSV/JSON, the Prometheus name mapper, dashboards keyed on the golden
// fixtures — never has to guess at case or separators. (The CamelCase
// leaf field names the registry's flattener appends come from Go struct
// fields and are exempt by design; this check owns the literal parts.)
//
// Concretely: every string literal lexically inside the name/prefix
// argument of Registry.Histogram, Registry.RegisterCounters, or
// telemetry.NewHistogram must match ^[a-z0-9._]*$. Dynamic parts
// (variables, Sprintf results, strconv.Itoa) are out of scope — the
// convention is enforced where names are coined, at the literals.
var SeriesName = &Analyzer{
	Name: "seriesname",
	Doc:  "telemetry series, histogram, and counter-prefix literals must be dotted lowercase",
	Run:  runSeriesName,
}

var seriesNameOK = regexp.MustCompile(`^[a-z0-9._]*$`)

// seriesNameArg maps the telemetry name-coining calls to the index of
// their name/prefix argument.
var seriesNameArg = map[string]int{
	"Histogram":        0,
	"RegisterCounters": 0,
	"NewHistogram":     0,
}

func runSeriesName(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, pkg := calledFunc(pass.TypesInfo, call.Fun)
			if pkg != "telemetry" {
				return true
			}
			if argIdx, ok := seriesNameArg[fn.Name()]; ok && len(call.Args) > argIdx {
				checkSeriesNameExpr(pass, fn.Name(), call.Args[argIdx])
			}
			return true
		})
	}
	return nil
}

// checkSeriesNameExpr validates every string literal lexically inside the
// name argument, so concatenations like label+".q"+strconv.Itoa(i) have
// their literal parts checked and their dynamic parts skipped.
func checkSeriesNameExpr(pass *Pass, fn string, arg ast.Expr) {
	ast.Inspect(arg, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		s, err := strconv.Unquote(lit.Value)
		if err != nil || seriesNameOK.MatchString(s) {
			return true
		}
		pass.Reportf(lit.Pos(),
			"series name literal %q in %s call is not dotted lowercase: names must match [a-z0-9._] (DESIGN.md invariant 12)",
			s, fn)
		return true
	})
}
