package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc polices allocation on functions marked with a
// `//simlint:hotpath` directive in their doc comment — the hand-tuned
// per-packet paths (the NIC's poll/doorbell batch loop) whose allocation
// counts the benchmark's `allocs_per_pkt` bound defends. Inside a marked
// function it flags everything that can allocate per call:
//
//   - `append`, which regrows the backing array whenever capacity runs
//     out — a steady-state path writes into a buffer sized up front, the
//     way the NIC's rings are;
//   - `make` and `new`;
//   - composite literals that escape to the heap in practice: `&T{...}`
//     and slice/map literals (plain struct-value literals like
//     `rxSlot{}` assign in place and are fine);
//   - func literals, which allocate a closure object whenever they
//     capture;
//   - a wire.Frame composite literal or a (*wire.Packet).Marshal call,
//     which build a frame outside the frame pool: the marked paths take
//     frames from pool.Get/pool.Clone and serialize with MarshalHeaders,
//     or the pool's gets == puts leak accounting goes out of balance
//     (`make(wire.Frame, n)` is already a make finding).
//
// The check is deliberately syntactic — it has no escape analysis — and
// admits no exception: every finding is hoisted out of the hot path. The
// real gate stays `make alloc-check` and that bound; hotalloc fails the
// build at the source line instead of a benchmark later.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "functions marked //simlint:hotpath must not allocate per call (append regrowth, make/new, escaping literals, closures, frames outside the pool)",
	Run:  runHotAlloc,
}

// hotpathMark is the doc-comment directive that opts a function in.
const hotpathMark = "simlint:hotpath"

func runHotAlloc(pass *Pass) error {
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasHotpathMark(fd.Doc) {
				continue
			}
			checkHotBody(pass, fd.Body)
		}
	}
	return nil
}

// hasHotpathMark reports whether doc carries a //simlint:hotpath line.
func hasHotpathMark(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == hotpathMark {
			return true
		}
	}
	return false
}

func checkHotBody(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			if isPacketMarshal(pass.TypesInfo, e.Fun) {
				pass.Reportf(e.Pos(),
					"(*wire.Packet).Marshal allocates its own frame in a //simlint:hotpath function: use pool.Get + MarshalHeaders so the buffer is recycled")
			}
			id, ok := ast.Unparen(e.Fun).(*ast.Ident)
			if !ok {
				return true
			}
			b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
			if !ok {
				return true
			}
			switch b.Name() {
			case "append":
				pass.Reportf(e.Pos(),
					"append in a //simlint:hotpath function may regrow its backing array: write into a buffer sized up front")
			case "make", "new":
				pass.Reportf(e.Pos(),
					"%s allocates in a //simlint:hotpath function: hoist the allocation out of the hot path", b.Name())
			}
		case *ast.UnaryExpr:
			// &T{...} of a struct/array escapes; slice and map literals are
			// reported on the literal itself below, so skip them here.
			if lit, ok := e.X.(*ast.CompositeLit); ok && e.Op == token.AND && !isSliceOrMapLit(pass, lit) {
				pass.Reportf(e.Pos(),
					"&composite literal allocates in a //simlint:hotpath function: hoist the value out of the hot path")
			}
		case *ast.CompositeLit:
			if isNamed(pass.TypesInfo.Types[e].Type, "wire", "Frame") {
				pass.Reportf(e.Pos(),
					"wire.Frame literal allocates a frame outside the pool in a //simlint:hotpath function: take it from the frame pool (pool.Get) so gets == puts holds")
			} else if isSliceOrMapLit(pass, e) {
				pass.Reportf(e.Pos(),
					"%s literal allocates in a //simlint:hotpath function: hoist the allocation out of the hot path", litKind(pass, e))
			}
		case *ast.FuncLit:
			pass.Reportf(e.Pos(),
				"func literal in a //simlint:hotpath function allocates a closure when it captures: hoist it out of the hot path")
		}
		return true
	})
}

// isPacketMarshal reports whether fun names (*wire.Packet).Marshal.
func isPacketMarshal(info *types.Info, fun ast.Expr) bool {
	fn, pkg := calledFunc(info, fun)
	if pkg != "wire" || fn.Name() != "Marshal" {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && isNamed(recv.Type(), "wire", "Packet")
}

// isSliceOrMapLit reports whether lit builds a slice or map value.
func isSliceOrMapLit(pass *Pass, lit *ast.CompositeLit) bool {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok || tv.Type == nil {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	}
	return false
}

// litKind names lit's underlying kind for the diagnostic.
func litKind(pass *Pass, lit *ast.CompositeLit) string {
	if tv, ok := pass.TypesInfo.Types[lit]; ok && tv.Type != nil {
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			return "map"
		}
	}
	return "slice"
}
