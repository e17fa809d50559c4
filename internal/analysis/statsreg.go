package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// StatsReg requires every exported struct type whose name ends in "Stats"
// (outside package main and the telemetry package itself) to reach the
// telemetry machinery somewhere in the program: as a (possibly nested)
// Registry.RegisterCounters source, or through a telemetry.Sum/Sub/SumInto
// merge. Neither snapshots nor merges read a struct that does neither.
//
// A merge is not a registration: only RegisterCounters puts counters in
// snapshots, and ktls.Stats, offload.RxStats and offload.TxStats pass
// this check through merges alone and reach no snapshot (the experiment
// and benchmark harnesses sum them). The struct's shape — exported
// uint64 fields and nested counter structs only — is checked by
// telemetry itself, at registration and in every merge.
//
// The check is whole-program: a Stats struct defined in one package is
// typically registered from another (experiments wires nic, tcpip, and
// netsim counters at world construction).
var StatsReg = &Analyzer{
	Name:       "statsreg",
	Doc:        "Stats structs must be registered with or merged by telemetry",
	RunProgram: runStatsReg,
}

type statsDef struct {
	key   string // "pkgpath.TypeName"
	named *types.Named
	pos   token.Pos
}

func runStatsReg(prog *Program) error {
	var defs []statsDef
	registered := make(map[string]bool)

	for _, pkg := range prog.Packages {
		if pkg.Pkg.Name() != "main" && pkg.Pkg.Name() != "telemetry" {
			defs = append(defs, collectStatsDefs(pkg)...)
		}
		collectWitnesses(pkg, registered)
	}
	sort.Slice(defs, func(i, j int) bool { return defs[i].key < defs[j].key })

	// A registered struct registers its nested struct fields too: the
	// flattener and Sum/Sub recurse into them.
	closeOverFields(registered, defs)

	for _, d := range defs {
		if !registered[d.key] {
			prog.Reportf(d.pos,
				"%s is never registered with the telemetry registry: pass it to Registry.RegisterCounters or merge it with telemetry.Sum/Sub, or neither snapshots nor merges read its counters",
				d.named.Obj().Name())
		}
	}
	return nil
}

// collectStatsDefs finds exported *Stats struct types defined in pkg.
func collectStatsDefs(pkg *Package) []statsDef {
	var defs []statsDef
	for id, obj := range pkg.TypesInfo.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok || !tn.Exported() || tn.Pkg() == nil || tn.Parent() != tn.Pkg().Scope() {
			continue
		}
		if !strings.HasSuffix(tn.Name(), "Stats") {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, ok := named.Underlying().(*types.Struct); !ok {
			continue
		}
		defs = append(defs, statsDef{key: typeKey(named), named: named, pos: id.Pos()})
	}
	return defs
}

func typeKey(n *types.Named) string {
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// collectWitnesses records every type that reaches the telemetry
// machinery in pkg: RegisterCounters arguments and Sum/Sub instantiations.
func collectWitnesses(pkg *Package, registered map[string]bool) {
	// Generic instantiations: telemetry.Sum[T]/Sub[T]/SumInto[T].
	for id, inst := range pkg.TypesInfo.Instances {
		fn, fpkg := calledFunc(pkg.TypesInfo, id)
		if fpkg != "telemetry" || (fn.Name() != "Sum" && fn.Name() != "Sub" && fn.Name() != "SumInto") {
			continue
		}
		if inst.TypeArgs.Len() == 1 {
			if named, ok := inst.TypeArgs.At(0).(*types.Named); ok {
				registered[typeKey(named)] = true
			}
		}
	}
	// RegisterCounters(prefix, &stats) calls.
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 2 {
				return true
			}
			if fn, fpkg := calledFunc(pkg.TypesInfo, call.Fun); fpkg != "telemetry" || fn.Name() != "RegisterCounters" {
				return true
			}
			argType := pkg.TypesInfo.Types[call.Args[1]].Type
			if ptr, ok := argType.(*types.Pointer); ok {
				argType = ptr.Elem()
			}
			if named, ok := argType.(*types.Named); ok {
				registered[typeKey(named)] = true
			}
			return true
		})
	}
}

// closeOverFields marks nested struct field types of registered structs
// as registered, to a fixed point.
func closeOverFields(registered map[string]bool, defs []statsDef) {
	byKey := make(map[string]*types.Named, len(defs))
	for _, d := range defs {
		byKey[d.key] = d.named
	}
	for changed := true; changed; {
		changed = false
		for key, named := range byKey {
			if !registered[key] {
				continue
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() {
					continue
				}
				if fn, ok := f.Type().(*types.Named); ok {
					if _, isStruct := fn.Underlying().(*types.Struct); isStruct && !registered[typeKey(fn)] {
						registered[typeKey(fn)] = true
						changed = true
					}
				}
			}
		}
	}
}
