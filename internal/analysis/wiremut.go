package analysis

import "go/ast"

// WireMut guards the serialized-frame contract: outside the wire package,
// nobody index-assigns into a wire.Frame (the named []byte a Marshal
// produces and the links carry). A raw `frame[i] = x` that rewrites a
// header byte silently breaks the IP/TCP checksums — the mutation either
// gets dropped at the receiver or, worse, desynchronizes the
// offload-vs-software equivalence the ECN path depends on. Mutation must
// go through the checksum-repairing helpers the wire package exports
// (wire.SetCE, wire.CorruptPayload, wire.FlipRandomBit).
//
// The check is type-directed: it fires on assignments, op-assignments,
// and ++/-- through an index expression whose operand is a wire.Frame
// (including sub-slices, which stay typed). Converting a Frame to []byte
// launders the type and is the visible, greppable escape hatch.
var WireMut = &Analyzer{
	Name: "wiremut",
	Doc:  "no raw index-assignment into a serialized wire.Frame outside the wire package",
	Run:  runWireMut,
}

func runWireMut(pass *Pass) error {
	if pass.Pkg.Name() == "wire" {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range s.Lhs {
					reportFrameIndex(pass, lhs)
				}
			case *ast.IncDecStmt:
				reportFrameIndex(pass, s.X)
			}
			return true
		})
	}
	return nil
}

// reportFrameIndex flags e when it is an index expression into a
// wire.Frame-typed operand.
func reportFrameIndex(pass *Pass, e ast.Expr) {
	ix, ok := e.(*ast.IndexExpr)
	if !ok {
		return
	}
	if !isNamed(pass.TypesInfo.Types[ix.X].Type, "wire", "Frame") {
		return
	}
	pass.Reportf(ix.Pos(),
		"raw write into a serialized wire.Frame: header bytes carry IP/TCP checksums — mutate through a checksum-repairing wire helper (e.g. wire.SetCE) instead")
}
