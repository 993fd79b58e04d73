package plan

import (
	"gis/internal/expr"
	"gis/internal/types"
)

// foldConstants folds constant sub-expressions throughout the plan.
func foldConstants(n Node) Node {
	EachInput(n, func(in *Node) { *in = foldConstants(*in) })
	eachExpr(n, func(e *expr.Expr) { *e = expr.FoldConstants(*e) })
	// A filter reduced to TRUE disappears.
	if f, ok := n.(*Filter); ok {
		if c, ok := f.Pred.(*expr.Const); ok && c.Val.Kind() == types.KindBool && c.Val.Bool() {
			return f.Input
		}
	}
	return n
}

// pushDownFilters moves filter predicates as close to the scans as
// possible: through projections (by substituting the projected
// expressions), into both sides of joins (and into an inner join's
// condition when it reads both), below sorts, into union arms,
// below aggregations (for group-key predicates, which is every predicate
// over a DISTINCT), and finally into GlobalScan.Filter.
func pushDownFilters(n Node) Node {
	switch t := n.(type) {
	case *Filter:
		t.Input = pushDownFilters(t.Input)
		remaining := pushPred(t.Pred, &t.Input)
		if remaining == nil {
			return t.Input
		}
		t.Pred = remaining
		return t
	case *Join:
		t.L = pushDownFilters(t.L)
		t.R = pushDownFilters(t.R)
		// An inner join's ON conjuncts sink as a WHERE conjunct above it
		// would: one over a single side into that input, one over both
		// back into the condition.
		if t.Kind == JoinInner && t.Cond != nil {
			var self Node = t
			cond := t.Cond
			t.Cond = nil
			t.Cond = expr.Conjoin([]expr.Expr{t.Cond, pushPred(cond, &self)})
		}
		return t
	default:
		// No filter of their own to sink: only their inputs change.
		EachInput(n, func(in *Node) { *in = pushDownFilters(*in) })
		return n
	}
}

// pushPred pushes the conjuncts of pred into *input, rewriting *input in
// place, and returns the conjunction that could not be pushed (nil when
// everything sank).
func pushPred(pred expr.Expr, input *Node) expr.Expr {
	var conj, keptBuf [8]expr.Expr
	kept := keptBuf[:0]
	for _, c := range expr.AppendConjuncts(conj[:0], pred) {
		if !pushConjunct(c, input) {
			kept = append(kept, c)
		}
	}
	return expr.Conjoin(kept)
}

// pushConjunct attempts to sink one conjunct into node; it reports
// success. The conjunct's column references are bound over node's output
// schema.
func pushConjunct(c expr.Expr, node *Node) bool {
	if expr.HasSubquery(c) || expr.HasAggregate(c) {
		return false
	}
	switch t := (*node).(type) {
	case *GlobalScan:
		// References are over the scan's output (post-Cols); rewrite to
		// full-schema positions, which is what Cols lists.
		t.Filter = expr.Conjoin([]expr.Expr{t.Filter, expr.Remap(c, t.Cols)})
		return true

	case *Filter:
		if pushConjunct(c, &t.Input) {
			return true
		}
		t.Pred = expr.Conjoin([]expr.Expr{t.Pred, c})
		return true

	case *Project:
		// Substitute projected expressions for references; only safe
		// when every referenced projection is deterministic (all our
		// expressions are pure).
		subst := expr.Transform(c, func(n expr.Expr) expr.Expr {
			if ref, ok := n.(*expr.ColRef); ok && ref.Index >= 0 && ref.Index < len(t.Exprs) {
				return t.Exprs[ref.Index]
			}
			return n
		})
		if !pushConjunct(subst, &t.Input) {
			// Wrap the input in a filter below the projection.
			t.Input = &Filter{Pred: subst, Input: t.Input}
		}
		return true

	case *Join:
		lw := t.L.Schema().Len()
		l, r := sidesOf(c, lw)
		switch {
		case l && !r:
			// Left side only: under a left join, the preserved side.
			if !pushConjunct(c, &t.L) {
				t.L = &Filter{Pred: c, Input: t.L}
			}
			return true
		case r && !l && t.Kind == JoinInner:
			shifted := expr.Shift(c, -lw)
			if !pushConjunct(shifted, &t.R) {
				t.R = &Filter{Pred: shifted, Input: t.R}
			}
			return true
		case l && r && t.Kind == JoinInner:
			// Both sides of an inner join: the conjunct is part of its
			// condition, so FROM a, b WHERE a.x = b.y joins on a.x = b.y.
			t.Cond = expr.Conjoin([]expr.Expr{t.Cond, c})
			return true
		default:
			// The right side of a left join, or both, must stay above to
			// preserve NULL-extension; a conjunct over neither side stays
			// where it is.
			return false
		}

	case *Sort:
		return pushConjunct(c, &t.Input)

	case *Union:
		// Push a copy into every arm (schemas are position-compatible).
		for i := range t.Inputs {
			if !pushConjunct(c, &t.Inputs[i]) {
				t.Inputs[i] = &Filter{Pred: c, Input: t.Inputs[i]}
			}
		}
		return true

	case *Aggregate:
		// Only predicates over pure group-by columns commute with
		// grouping.
		m := make([]int, len(t.GroupBy)) // output position → input column
		for i, g := range t.GroupBy {
			m[i] = -1
			if ref, isCol := g.(*expr.ColRef); isCol {
				m[i] = ref.Index
			}
		}
		ok := true
		expr.Columns(c, func(idx int) {
			if idx >= len(m) || m[idx] < 0 {
				ok = false
			}
		})
		if !ok {
			return false
		}
		remapped := expr.Remap(c, m)
		if !pushConjunct(remapped, &t.Input) {
			t.Input = &Filter{Pred: remapped, Input: t.Input}
		}
		return true

	default:
		// Limit, FragScan, Values: a filter cannot pass.
		return false
	}
}

// sidesOf reports which sides of a join's concatenated schema a
// predicate reads.
func sidesOf(c expr.Expr, leftWidth int) (left, right bool) {
	expr.Columns(c, func(idx int) {
		if idx < leftWidth {
			left = true
		} else {
			right = true
		}
	})
	return left, right
}

// EachInput calls f with each input slot of n, in the order its output
// concatenates them (a Join's left, then its right; a Union's arms), so
// f can read an input or replace it. It and eachExpr are the one
// statement of what a node holds: every pass walks a plan through them.
func EachInput(n Node, f func(*Node)) {
	switch t := n.(type) {
	case *Filter:
		f(&t.Input)
	case *Project:
		f(&t.Input)
	case *Join:
		f(&t.L)
		f(&t.R)
	case *Aggregate:
		f(&t.Input)
	case *Sort:
		f(&t.Input)
	case *Limit:
		f(&t.Input)
	case *Union:
		for i := range t.Inputs {
			f(&t.Inputs[i])
		}
	default:
		// GlobalScan, FragScan and Values are leaves.
	}
}

// eachExpr calls f with each expression slot of n bound over its
// inputs' concatenated columns, nil ones (a Join without a condition,
// COUNT(*)'s argument) included, so f can read or replace it.
func eachExpr(n Node, f func(*expr.Expr)) {
	switch t := n.(type) {
	case *Filter:
		f(&t.Pred)
	case *Project:
		for i := range t.Exprs {
			f(&t.Exprs[i])
		}
	case *Join:
		f(&t.Cond)
	case *Aggregate:
		for i := range t.GroupBy {
			f(&t.GroupBy[i])
		}
		for i := range t.Aggs {
			f(&t.Aggs[i].Arg)
		}
	case *Sort:
		for i := range t.Keys {
			f(&t.Keys[i].E)
		}
	default:
		// Limit and Union read no expression; a GlobalScan's filter is
		// bound over its table and a FragScan's residual over the
		// columns it fetches, not over an input, and Values has none.
	}
}
