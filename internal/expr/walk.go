package expr

import (
	"gis/internal/types"
)

// Walk calls fn for every node in the tree in pre-order. If fn returns
// false the node's children are not visited.
func Walk(e Expr, fn func(Expr) bool) {
	if e == nil {
		return
	}
	if !fn(e) {
		return
	}
	for _, c := range e.Children() {
		Walk(c, fn)
	}
}

// Transform rebuilds the tree bottom-up, replacing every node with
// fn(node-with-transformed-children). fn must not return nil.
func Transform(e Expr, fn func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	kids := e.Children()
	if len(kids) > 0 {
		newKids := make([]Expr, len(kids))
		changed := false
		for i, k := range kids {
			newKids[i] = Transform(k, fn)
			if newKids[i] != k {
				changed = true
			}
		}
		if changed {
			e = e.withChildren(newKids)
		}
	}
	return fn(e)
}

// Columns returns every column reference in the tree, in visit order.
func Columns(e Expr) []*ColRef {
	var out []*ColRef
	Walk(e, func(n Expr) bool {
		if c, ok := n.(*ColRef); ok {
			out = append(out, c)
		}
		return true
	})
	return out
}

// ColumnSet returns the set of bound column indexes referenced by e.
func ColumnSet(e Expr) map[int]struct{} {
	set := make(map[int]struct{})
	for _, c := range Columns(e) {
		if c.Index >= 0 {
			set[c.Index] = struct{}{}
		}
	}
	return set
}

// HasAggregate reports whether the tree contains an AggCall.
func HasAggregate(e Expr) bool {
	found := false
	Walk(e, func(n Expr) bool {
		if _, ok := n.(*AggCall); ok {
			found = true
			return false
		}
		return true
	})
	return found
}

// Conjuncts splits a predicate on top-level ANDs: (a AND (b AND c))
// yields [a, b, c]. A nil predicate yields nil.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*Binary); ok && b.Op == OpAnd {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Expr{e}
}

// Conjoin combines predicates with AND. An empty list yields nil.
func Conjoin(preds []Expr) Expr {
	var out Expr
	for _, p := range preds {
		if p == nil {
			continue
		}
		if out == nil {
			out = p
			continue
		}
		out = &Binary{Op: OpAnd, L: out, R: p, typ: types.KindBool}
	}
	return out
}

// Remap rewrites bound column indexes through mapping (old index → new
// index). References absent from the mapping are left unchanged.
func Remap(e Expr, mapping map[int]int) Expr {
	return Transform(e, func(n Expr) Expr {
		c, ok := n.(*ColRef)
		if !ok || c.Index < 0 {
			return n
		}
		ni, ok := mapping[c.Index]
		if !ok {
			return n
		}
		cp := *c
		cp.Index = ni
		return &cp
	})
}

// Shift adds delta to every bound column index (used when an expression
// over the right side of a join is evaluated against the concatenated
// row).
func Shift(e Expr, delta int) Expr {
	if delta == 0 {
		return e
	}
	return Transform(e, func(n Expr) Expr {
		c, ok := n.(*ColRef)
		if !ok || c.Index < 0 {
			return n
		}
		cp := *c
		cp.Index += delta
		return &cp
	})
}

// IsConst reports whether the tree references no columns and contains no
// aggregates (so it can be folded to a literal).
func IsConst(e Expr) bool {
	constant := true
	Walk(e, func(n Expr) bool {
		switch n.(type) {
		case *ColRef, *AggCall:
			constant = false
			return false
		default:
			// Every other node is constant if its children are.
		}
		return true
	})
	return constant
}

// FoldConstants evaluates constant subtrees to literals. It is
// conservative: a subtree that fails to evaluate (e.g. division by zero)
// is left intact so the error surfaces at execution time. Fold also
// simplifies boolean identities over TRUE/FALSE and x AND x.
func FoldConstants(e Expr) Expr {
	return Transform(e, func(n Expr) Expr {
		if _, ok := n.(*Const); ok {
			return n
		}
		if b, ok := n.(*Binary); ok && b.Op.Logical() {
			if s := simplifyLogical(b); s != nil {
				return s
			}
		}
		if !IsConst(n) {
			return n
		}
		v, err := n.Eval(nil)
		if err != nil {
			return n
		}
		return &Const{Val: v}
	})
}

// simplifyLogical applies TRUE/FALSE identities to a logical binary node.
// It returns nil when no simplification applies.
func simplifyLogical(b *Binary) Expr {
	lc, lIsConst := b.L.(*Const)
	rc, rIsConst := b.R.(*Const)
	boolVal := func(c *Const) (bool, bool) {
		if c.Val.Kind() != types.KindBool {
			return false, false
		}
		return c.Val.Bool(), true
	}
	if lIsConst {
		if v, ok := boolVal(lc); ok {
			switch {
			case b.Op == OpAnd && v, b.Op == OpOr && !v:
				return b.R
			case b.Op == OpAnd && !v:
				return NewConst(types.NewBool(false))
			case b.Op == OpOr && v:
				return NewConst(types.NewBool(true))
			}
		}
	}
	if rIsConst {
		if v, ok := boolVal(rc); ok {
			switch {
			case b.Op == OpAnd && v, b.Op == OpOr && !v:
				return b.L
			case b.Op == OpAnd && !v:
				return NewConst(types.NewBool(false))
			case b.Op == OpOr && v:
				return NewConst(types.NewBool(true))
			}
		}
	}
	return nil
}

// Equal reports structural equality of two expressions (after String
// normalization — adequate for rule idempotence checks and tests).
func Equal(a, b Expr) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.String() == b.String()
}
