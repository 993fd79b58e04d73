package catalog

import (
	"fmt"

	"gis/internal/expr"
	"gis/internal/types"
)

// TranslateConjunct rewrites one conjunct of a global-schema predicate
// into the fragment's remote schema for pushdown. ok is false when the
// conjunct cannot be translated (it then stays at the mediator):
//   - references a constant-mapped or transformed column in a shape
//     other than <col> cmp <const>,
//   - needs a non-invertible mapping,
//   - contains a subquery.
func (f *Fragment) TranslateConjunct(c expr.Expr) (expr.Expr, bool) {
	if c == nil || expr.HasSubquery(c) {
		return nil, false
	}
	// Fast path: every referenced column is identity-mapped → rewrite
	// column indexes wholesale.
	if remapped, ok := f.translateIdentity(c); ok {
		return remapped, true
	}
	// Transformed columns: only <col> cmp <const> (either order).
	return f.translateComparison(c)
}

func (f *Fragment) translateIdentity(c expr.Expr) (expr.Expr, bool) {
	allIdentity := true
	expr.Walk(c, func(n expr.Expr) bool {
		if col, ok := n.(*expr.ColRef); ok && (col.Index < 0 || col.Index >= len(f.Columns) || !f.Columns[col.Index].Identity()) {
			allIdentity = false
		}
		return allIdentity
	})
	if !allIdentity {
		return nil, false
	}
	out := expr.Transform(c, func(n expr.Expr) expr.Expr {
		col, ok := n.(*expr.ColRef)
		if !ok || col.Index < 0 {
			return n
		}
		m := f.Columns[col.Index]
		rcol := f.info.Schema.Columns[m.RemoteCol]
		return expr.NewBoundColRef(m.RemoteCol, rcol.Type, rcol.Name)
	})
	return out, true
}

// translateComparison handles <col> cmp <const> over a transformed
// column by inverting the transform on the constant.
func (f *Fragment) translateComparison(c expr.Expr) (expr.Expr, bool) {
	col, op, val, ok := expr.ColumnComparison(c)
	if !ok || col.Index < 0 || col.Index >= len(f.Columns) {
		return nil, false
	}
	m := f.Columns[col.Index]
	if m.Const != nil {
		return nil, false
	}
	rv, ok := m.ToRemote(val)
	if !ok {
		return nil, false
	}
	// A negative affine scale flips inequality directions.
	if m.hasAffine() && m.Scale < 0 {
		switch op {
		case expr.OpLt:
			op = expr.OpGt
		case expr.OpLe:
			op = expr.OpGe
		case expr.OpGt:
			op = expr.OpLt
		case expr.OpGe:
			op = expr.OpLe
		default:
			// Equality and non-comparison operators are direction-free.
		}
	}
	rcol := f.info.Schema.Columns[m.RemoteCol]
	return expr.NewBinary(op,
		expr.NewBoundColRef(m.RemoteCol, rcol.Type, rcol.Name),
		expr.NewConst(rv)), true
}

// SplitFilter partitions a bound global predicate's conjuncts into the
// remote-translated pushable part and the global-side residual.
func (f *Fragment) SplitFilter(pred expr.Expr) (remote expr.Expr, residual expr.Expr) {
	var pushed, kept []expr.Expr
	for _, c := range expr.Conjuncts(pred) {
		if rc, ok := f.TranslateConjunct(c); ok {
			pushed = append(pushed, rc)
		} else {
			kept = append(kept, c)
		}
	}
	return expr.Conjoin(pushed), expr.Conjoin(kept)
}

// NeedsTranslation reports whether any of the given global columns has a
// non-identity mapping (so row values must be converted).
func (f *Fragment) NeedsTranslation(globalCols []int) bool {
	for _, g := range globalCols {
		if !f.Columns[g].Identity() {
			return true
		}
	}
	return false
}

// RemoteCols maps the requested global columns to remote positions.
// Constant-mapped columns contribute no remote column.
func (f *Fragment) RemoteCols(globalCols []int) []int {
	remote := make([]int, 0, len(globalCols))
	for _, g := range globalCols {
		if rc := f.Columns[g].RemoteCol; rc >= 0 {
			remote = append(remote, rc)
		}
	}
	return remote
}

// TranslateInto converts a remote row (projected to exactly the
// remote-backed columns of globalCols, in order) into the global
// representation of globalCols, coercing to the global column types. It
// fills dst, which the caller supplies len(globalCols) wide.
func (f *Fragment) TranslateInto(dst types.Row, globalSchema *types.Schema, globalCols []int, remoteRow types.Row) error {
	ri := 0
	for i, g := range globalCols {
		m := f.Columns[g]
		var v types.Value
		if m.RemoteCol >= 0 {
			if ri >= len(remoteRow) {
				return fmt.Errorf("catalog: remote row too short for fragment %s.%s", f.Source, f.RemoteTable)
			}
			v = remoteRow[ri]
			ri++
		}
		gv, err := m.ToGlobal(v)
		if err != nil {
			return fmt.Errorf("catalog: fragment %s.%s column %s: %w",
				f.Source, f.RemoteTable, globalSchema.Columns[g].Name, err)
		}
		if !gv.IsNull() && gv.Kind() != globalSchema.Columns[g].Type {
			gv, err = gv.Coerce(globalSchema.Columns[g].Type)
			if err != nil {
				return fmt.Errorf("catalog: fragment %s.%s column %s: %w",
					f.Source, f.RemoteTable, globalSchema.Columns[g].Name, err)
			}
		}
		dst[i] = gv
	}
	return nil
}

// PruneByPartition reports whether the fragment can be skipped entirely
// for a query filter: true when the fragment's partition predicate and
// the filter are provably disjoint. The check is conservative — it only
// proves disjointness for single-column equality/range patterns.
func (f *Fragment) PruneByPartition(filter expr.Expr) bool {
	if f.Where == nil || filter == nil {
		return false
	}
	for _, fc := range expr.Conjuncts(filter) {
		for _, pc := range expr.Conjuncts(f.Where) {
			if contradicts(fc, pc) {
				return true
			}
		}
	}
	return false
}

// contradicts proves that two comparisons over the same column cannot
// both hold. It understands <col> cmp <const> shapes only.
func contradicts(a, b expr.Expr) bool {
	ca, va, opa, ok := colConstCmp(a)
	if !ok {
		return false
	}
	cb, vb, opb, ok := colConstCmp(b)
	if !ok || ca != cb {
		return false
	}
	// Evaluate interval intersection for the nine op pairs.
	lowA, highA, okA := interval(opa, va)
	lowB, highB, okB := interval(opb, vb)
	if !okA || !okB {
		return false
	}
	lo := maxBound(lowA, lowB)
	hi := minBound(highA, highB)
	if lo == nil || hi == nil {
		return false
	}
	c := lo.v.Compare(hi.v)
	if c > 0 {
		return true
	}
	if c == 0 && (!lo.incl || !hi.incl) {
		return true
	}
	return false
}

// colConstCmp is a column comparison an interval can be read from: not
// <>, not against NULL.
func colConstCmp(e expr.Expr) (col int, v types.Value, op expr.BinOp, ok bool) {
	c, op, v, ok := expr.ColumnComparison(e)
	if !ok || op == expr.OpNe || c.Index < 0 || v.IsNull() {
		return 0, types.Null, 0, false
	}
	return c.Index, v, op, true
}

type bound struct {
	v    types.Value
	incl bool
}

// interval converts col OP v into [low, high] bounds (nil = open).
func interval(op expr.BinOp, v types.Value) (low, high *bound, ok bool) {
	switch op {
	case expr.OpEq:
		return &bound{v, true}, &bound{v, true}, true
	case expr.OpLt:
		return nil, &bound{v, false}, true
	case expr.OpLe:
		return nil, &bound{v, true}, true
	case expr.OpGt:
		return &bound{v, false}, nil, true
	case expr.OpGe:
		return &bound{v, true}, nil, true
	default:
		return nil, nil, false
	}
}

func maxBound(a, b *bound) *bound {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	c := a.v.Compare(b.v)
	if c > 0 || (c == 0 && !a.incl) {
		return a
	}
	return b
}

func minBound(a, b *bound) *bound {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	c := a.v.Compare(b.v)
	if c < 0 || (c == 0 && !a.incl) {
		return a
	}
	return b
}

// TranslateValue rewrites a global-space value expression (the right side
// of SET col = e, or an INSERT value) into the remote representation for
// the fragment column targetCol. It succeeds for constants (inverted
// through the target mapping) and for expressions whose referenced
// columns — and the target — are identity-mapped.
func (f *Fragment) TranslateValue(e expr.Expr, targetCol int) (expr.Expr, bool) {
	m := f.Columns[targetCol]
	if !m.Invertible() {
		return nil, false
	}
	if c, ok := e.(*expr.Const); ok {
		rv, ok := m.ToRemote(c.Val)
		if !ok {
			return nil, false
		}
		return expr.NewConst(rv), true
	}
	if !m.Identity() {
		return nil, false
	}
	return f.translateIdentity(e)
}
