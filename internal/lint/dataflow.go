package lint

import (
	"go/ast"
	"go/types"
)

// Forward dataflow over a CFG. States map a comparable key (a tracked
// variable, a lock path) to a small ordered abstract value; join is
// pointwise max, so lattices encode "worse" as larger and every analysis
// here is a may-analysis: a fact at a point holds on at least one path.

// cloneFacts copies a state map.
func cloneFacts[K comparable](s map[K]uint8) map[K]uint8 {
	out := make(map[K]uint8, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// joinInto merges src into dst pointwise by max and reports change.
func joinInto[K comparable](dst, src map[K]uint8) bool {
	changed := false
	for k, v := range src {
		if dst[k] < v {
			dst[k] = v
			changed = true
		}
	}
	return changed
}

// fixpoint runs a forward dataflow analysis over g until stable and
// returns the incoming state of every reachable block. transfer mutates
// the given state through the block's nodes in order. refine, when
// non-nil, sharpens the state crossing a conditional edge (from.Cond is
// set and to is from.TrueTo or from.FalseTo) — e.g. "err is non-nil on
// this edge". Values only grow under join, so iteration terminates.
func fixpoint[K comparable](
	g *CFG,
	entry map[K]uint8,
	transfer func(b *Block, s map[K]uint8),
	refine func(from, to *Block, s map[K]uint8),
) map[*Block]map[K]uint8 {
	in := map[*Block]map[K]uint8{g.Entry: cloneFacts(entry)}
	work := []*Block{g.Entry}
	queued := map[*Block]bool{g.Entry: true}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false
		out := cloneFacts(in[b])
		transfer(b, out)
		for _, succ := range b.Succs {
			es := out
			if refine != nil && b.Cond != nil && (succ == b.TrueTo || succ == b.FalseTo) {
				es = cloneFacts(out)
				refine(b, succ, es)
			}
			cur, ok := in[succ]
			changed := false
			if !ok {
				in[succ] = cloneFacts(es)
				changed = true
			} else {
				changed = joinInto(cur, es)
			}
			if changed && !queued[succ] {
				queued[succ] = true
				work = append(work, succ)
			}
		}
	}
	return in
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// hasContextParam reports whether sig takes a context.Context anywhere.
func hasContextParam(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// moduleCtxCallee resolves call to a module-internal function or method
// that accepts a context.Context — the RPC-shaped calls the flow
// analyzers treat as potentially blocking. Returns nil otherwise.
func moduleCtxCallee(pass *Pass, call *ast.CallExpr) *types.Func {
	fn := calleeFunc(pass.Pkg, call)
	if fn == nil || !pass.InModule(fn.Pkg()) {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || !hasContextParam(sig) {
		return nil
	}
	return fn
}

// nilCompare decomposes cond into (variable, op) when it is a direct
// `x == nil` or `x != nil` comparison of an identifier.
func nilCompare(pass *Pass, cond ast.Expr) (*types.Var, bool, bool) {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return nil, false, false
	}
	var idExpr, other ast.Expr
	if isNilIdent(pass, be.X) {
		idExpr, other = be.Y, be.X
	} else if isNilIdent(pass, be.Y) {
		idExpr, other = be.X, be.Y
	} else {
		return nil, false, false
	}
	_ = other
	id, ok := idExpr.(*ast.Ident)
	if !ok {
		return nil, false, false
	}
	v, ok := pass.ObjectOf(id).(*types.Var)
	if !ok {
		return nil, false, false
	}
	switch be.Op.String() {
	case "==":
		return v, true, true // true edge means "x is nil"
	case "!=":
		return v, false, true // true edge means "x is non-nil"
	}
	return nil, false, false
}

func isNilIdent(pass *Pass, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := pass.ObjectOf(id).(*types.Nil)
	return isNil
}
