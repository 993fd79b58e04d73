package expr

import (
	"gis/internal/types"
)

// Walk calls fn for every node in the tree in pre-order. If fn returns
// false the node's children are not visited.
func Walk(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	walkChildren(e, fn)
}

// walkChildren walks each direct sub-expression of e, in the order the
// node's String prints them. It and mapChildren are the one statement of
// what a node's children are; neither has a default clause, so a new
// node type fails the exhaustive lint until both know it. They are
// switches and not methods of Expr because a func handed through an
// interface call escapes: every visitor's closure would be allocated.
func walkChildren(e Expr, fn func(Expr) bool) {
	switch n := e.(type) {
	case *ColRef, *Const:
	case *Binary:
		Walk(n.L, fn)
		Walk(n.R, fn)
	case *Unary:
		Walk(n.E, fn)
	case *IsNull:
		Walk(n.E, fn)
	case *InList:
		Walk(n.E, fn)
		for _, el := range n.List {
			Walk(el, fn)
		}
	case *Case:
		Walk(n.Operand, fn)
		for _, w := range n.Whens {
			Walk(w.Cond, fn)
			Walk(w.Then, fn)
		}
		Walk(n.Else, fn)
	case *Cast:
		Walk(n.E, fn)
	case *Call:
		for _, a := range n.Args {
			Walk(a, fn)
		}
	case *AggCall:
		Walk(n.Arg, fn)
	case *Subquery:
		Walk(n.Operand, fn)
	}
}

// Transform rebuilds the tree bottom-up, replacing every node with
// fn(node-with-transformed-children). fn must not return nil. A node is
// copied only when one of its children changed: where fn returns its
// argument throughout a subtree, the result shares that subtree with the
// input, and a Transform that changes nothing returns e itself and
// allocates nothing. Trees are therefore shared between plans, and only
// Transform (through mapChildren) and Bind make nodes out of old ones.
func Transform(e Expr, fn func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	return fn(mapChildren(e, fn))
}

// mapChildren transforms each direct sub-expression of e, in walkChildren's
// order, and returns e itself when none changed, else a copy of e over
// the new children.
func mapChildren(e Expr, fn func(Expr) Expr) Expr {
	switch n := e.(type) {
	case *ColRef, *Const:
	case *Binary:
		l, r := Transform(n.L, fn), Transform(n.R, fn)
		if l != n.L || r != n.R {
			cp := *n
			cp.L, cp.R = l, r
			return &cp
		}
	case *Unary:
		if in := Transform(n.E, fn); in != n.E {
			cp := *n
			cp.E = in
			return &cp
		}
	case *IsNull:
		if in := Transform(n.E, fn); in != n.E {
			cp := *n
			cp.E = in
			return &cp
		}
	case *InList:
		in := Transform(n.E, fn)
		if list, changed := mapList(n.List, fn); changed || in != n.E {
			// A fresh node: the cached membership set must not leak to a
			// copy with a different list.
			return &InList{E: in, List: list, Negate: n.Negate}
		}
	case *Case:
		op := Transform(n.Operand, fn)
		whens, changed := n.Whens, false
		for i, w := range n.Whens {
			cond, then := Transform(w.Cond, fn), Transform(w.Then, fn)
			if cond == w.Cond && then == w.Then {
				continue
			}
			if !changed {
				whens, changed = append([]When(nil), n.Whens...), true
			}
			whens[i] = When{Cond: cond, Then: then}
		}
		els := Transform(n.Else, fn)
		if changed || op != n.Operand || els != n.Else {
			cp := *n
			cp.Operand, cp.Whens, cp.Else = op, whens, els
			return &cp
		}
	case *Cast:
		if in := Transform(n.E, fn); in != n.E {
			cp := *n
			cp.E = in
			return &cp
		}
	case *Call:
		if args, changed := mapList(n.Args, fn); changed {
			cp := *n
			cp.Args = args
			return &cp
		}
	case *AggCall:
		if arg := Transform(n.Arg, fn); arg != n.Arg {
			cp := *n
			cp.Arg = arg
			return &cp
		}
	case *Subquery:
		if op := Transform(n.Operand, fn); op != n.Operand {
			cp := *n
			cp.Operand = op
			return &cp
		}
	}
	return e
}

// mapList transforms every element of list. It returns list itself when
// none changed, and a copy made at the first that did.
func mapList(list []Expr, fn func(Expr) Expr) (out []Expr, changed bool) {
	out = list
	for i, el := range list {
		nw := Transform(el, fn)
		if nw == el {
			continue
		}
		if !changed {
			out, changed = append([]Expr(nil), list...), true
		}
		out[i] = nw
	}
	return out, changed
}

// Columns calls fn with the position of every bound column reference in
// the tree, in visit order; a column referenced twice is reported twice.
// It is how a caller learns which columns an expression reads: mark a
// []bool, or test each position as it comes.
func Columns(e Expr, fn func(index int)) {
	Walk(e, func(n Expr) bool {
		if c, ok := n.(*ColRef); ok && c.Index >= 0 {
			fn(c.Index)
		}
		return true
	})
}

// ColumnLayout lays out, in ascending order, the columns a consumer is
// handed when it asked for cols and its filter e reads some more: list
// holds them, and pos[c] is where column c sits in list, -1 when it does
// not. width is the number of columns there are to choose from.
func ColumnLayout(width int, cols []int, e Expr) (list, pos []int) {
	const absent, present = -1, 0
	pos = make([]int, width)
	for i := range pos {
		pos[i] = absent
	}
	for _, c := range cols {
		pos[c] = present
	}
	Columns(e, func(c int) { pos[c] = present })
	list = make([]int, 0, width)
	for c, p := range pos {
		if p == present {
			pos[c] = len(list)
			list = append(list, c)
		}
	}
	return list, pos
}

// HasAggregate reports whether the tree contains an AggCall.
func HasAggregate(e Expr) bool {
	found := false
	Walk(e, func(n Expr) bool {
		if _, ok := n.(*AggCall); ok {
			found = true
		}
		return !found
	})
	return found
}

// AppendConjuncts appends the conjuncts of a predicate — its operands
// under top-level ANDs, (a AND (b AND c)) yields a, b, c — to dst and
// returns the extended slice; a nil predicate appends nothing. A caller
// that splits a predicate to look at its parts passes a buffer on its own
// stack (var buf [8]expr.Expr; AppendConjuncts(buf[:0], e)), which costs
// no allocation up to its capacity.
func AppendConjuncts(dst []Expr, e Expr) []Expr {
	if e == nil {
		return dst
	}
	if b, ok := e.(*Binary); ok && b.Op == OpAnd {
		return AppendConjuncts(AppendConjuncts(dst, b.L), b.R)
	}
	return append(dst, e)
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

// Remap rewrites bound column indexes through mapping: a reference to
// column i becomes one to mapping[i]. A reference mapping does not reach
// (i >= len(mapping)) or maps to -1 is left as it is, and so is one that
// maps to itself; like every Transform, Remap copies only the nodes above
// a reference it changed and returns e itself when it changed none.
func Remap(e Expr, mapping []int) Expr {
	return Transform(e, func(n Expr) Expr {
		c, ok := n.(*ColRef)
		if !ok || c.Index < 0 || c.Index >= len(mapping) {
			return n
		}
		if ni := mapping[c.Index]; ni >= 0 && ni != c.Index {
			cp := *c
			cp.Index = ni
			return &cp
		}
		return n
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
		default:
			// Every other node is constant if its children are.
		}
		return constant
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
