package lint

import (
	"go/ast"
	"go/types"
)

// valCopyLimit is the largest by-value parameter/copy the hot path
// tolerates, in bytes: eight machine words. types.Value (32 bytes)
// travels by value everywhere by repo convention and passes, as does a
// pair of them (a range's bounds); anything bigger (a struct embedding
// Values plus bookkeeping, a fat config struct) is flagged.
const valCopyLimit = 64

// valCopySizes matches the target platform model used across the repo
// (64-bit words, 8-byte max alignment).
var valCopySizes = types.StdSizes{WordSize: 8, MaxAlign: 8}

// ValCopy flags large-struct by-value traffic in hot signatures and hot
// range statements: a parameter, receiver, or range element bigger than
// valCopyLimit bytes is copied on every call/iteration of the hot path.
func ValCopy() *Analyzer {
	return &Analyzer{
		Name:     "valcopy",
		Doc:      "no large-struct by-value parameters, receivers, or range copies in hot code",
		Severity: SeverityWarning,
		Run:      runValCopy,
	}
}

func runValCopy(pass *Pass) {
	hot := pass.Interproc().Hot
	for _, n := range hotNodesOf(pass) {
		checkValCopySig(pass, hot, n)
		checkValCopyRanges(pass, hot, n)
	}
}

// checkValCopySig flags large by-value parameters and receivers. The
// whole signature is per-call hot, so Reportable's loop refinement does
// not apply: any Hot grade qualifies.
func checkValCopySig(pass *Pass, hot *HotSet, n *FuncNode) {
	sig := nodeSig(n)
	if sig == nil || n.Typ == nil {
		return
	}
	if recv := sig.Recv(); recv != nil && n.Obj != nil {
		if sz, big := largeValue(recv.Type()); big {
			pass.Reportf(n.Obj.Pos(), "receiver of %s %s copies %d bytes by value per call; use a pointer receiver", hot.LevelOf(n), displayName(n), sz)
		}
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		pv := params.At(i)
		if pv == nil {
			continue
		}
		if sz, big := largeValue(pv.Type()); big {
			pos := pv.Pos()
			if !pos.IsValid() {
				pos = n.Body.Pos()
			}
			pass.Reportf(pos, "parameter %s of %s %s copies %d bytes by value per call; pass a pointer", pv.Name(), hot.LevelOf(n), displayName(n), sz)
		}
	}
}

// checkValCopyRanges flags `for _, v := range xs` where each iteration
// copies a large element value.
func checkValCopyRanges(pass *Pass, hot *HotSet, n *FuncNode) {
	walkNode(n.Body, func(m ast.Node) bool {
		rs, ok := m.(*ast.RangeStmt)
		if !ok || rs.Value == nil {
			return true
		}
		// A range statement is itself a loop, so any hot grade makes its
		// per-iteration copies per-row cost. The value ident is a
		// definition, so its type lives in Defs, not Types.
		vt := pass.TypeOf(rs.Value)
		if vt == nil {
			if id, ok := rs.Value.(*ast.Ident); ok {
				if obj := pass.ObjectOf(id); obj != nil {
					vt = obj.Type()
				}
			}
		}
		if sz, big := largeValue(vt); big {
			pass.Reportf(rs.Value.Pos(), "range copies a %d-byte element per iteration in %s %s; range over indices instead", sz, hot.LevelOf(n), displayName(n))
		}
		return true
	}, nil)
}

// largeValue reports t's size when t is a non-pointer struct or array
// strictly larger than valCopyLimit bytes.
func largeValue(t types.Type) (int64, bool) {
	if t == nil {
		return 0, false
	}
	switch t.Underlying().(type) {
	case *types.Struct, *types.Array:
		sz := valCopySizes.Sizeof(t)
		return sz, sz > valCopyLimit
	}
	return 0, false
}
