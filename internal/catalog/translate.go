package catalog

import (
	"fmt"
	"math"

	"gis/internal/expr"
	"gis/internal/types"
)

// TranslateConjunct rewrites one conjunct of a global-schema predicate
// into the fragment's remote schema for pushdown: a predicate that holds
// of a remote row exactly when the conjunct holds of its translation. ok
// is false when there is none to be had (the conjunct then stays at the
// mediator):
//   - references a constant-mapped or transformed column in a shape
//     other than <col> cmp <const>,
//   - needs a mapping inverted that does not invert, or not exactly
//     (translateComparison),
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
// column, and only where the source's comparison accepts exactly the
// rows the global one does:
//   - a value map inverts the constant of = and <> (ToRemote says when
//     it cannot); codes need not sort as what they stand for, so an
//     ordering comparison stays;
//   - an affine conversion takes <, <=, > and >= with the boundary found
//     by affineBound; = and <> stay, since the inverse is rounded and no
//     remote constant need map onto the global one;
//   - a column coerced from one numeric kind to the other compares as
//     numbers either side, so the constant goes as written; any other
//     coercion stays, since the two kinds neither order nor identify
//     values alike ('5' < '42', and '042' is not '42').
func (f *Fragment) translateComparison(c expr.Expr) (expr.Expr, bool) {
	col, op, val, ok := expr.ColumnComparison(c)
	if !ok || col.Index < 0 || col.Index >= len(f.Columns) {
		return nil, false
	}
	m := &f.Columns[col.Index]
	var rv types.Value
	switch {
	case m.Const != nil:
		return nil, false
	case m.hasAffine():
		if rv, op, ok = m.affineBound(op, val); !ok {
			return nil, false
		}
	case m.ValueMap != nil && op != expr.OpEq && op != expr.OpNe,
		m.retyped() && !(m.remoteKind.Numeric() && m.globalKind.Numeric()):
		return nil, false
	default:
		if rv, ok = m.ToRemote(val); !ok {
			return nil, false
		}
	}
	rcol := f.info.Schema.Columns[m.RemoteCol]
	return expr.NewBinary(op,
		expr.NewBoundColRef(m.RemoteCol, rcol.Type, rcol.Name),
		expr.NewConst(rv)), true
}

// affineBoundSteps bounds affineBound's walk. The boundary is a few
// representable values from the rounded inverse unless Offset swamps
// Scale, and then the conjunct is better kept than searched for.
const affineBoundSteps = 64

// affineBound translates <global> op v over an affine column into the
// remote comparison that holds for exactly the same remote values. The
// inverse (v - Offset) / Scale is rounded, so comparing with it can
// disagree, for values at the boundary, with comparing ToGlobal's result
// with v. ToGlobal is monotone — a float multiply-add by constants
// rounds monotonically — so the boundary exists, and the inverse is
// stepped one representable value at a time onto it: for < and >= the
// first value, going the way ToGlobal grows, whose image is not below
// v; for <= and > the last whose image is not above it. A negative scale
// grows the other way and flips the operator.
func (m *ColumnMapping) affineBound(op expr.BinOp, v types.Value) (types.Value, expr.BinOp, bool) {
	if v.IsNull() {
		return v, op, true
	}
	if !v.Kind().Numeric() {
		return types.Null, op, false
	}
	// Seen from the boundary value, sign*side is >= 0 on it and past
	// it, < 0 before it, and up is where "past" lies.
	up, sign := math.Inf(1), 1
	switch op {
	case expr.OpLt, expr.OpGe:
	case expr.OpLe, expr.OpGt:
		up, sign = -up, -1
	default:
		return types.Null, op, false
	}
	if m.Scale < 0 {
		up = -up
		op, _ = op.Commutes()
	}
	side := func(c float64) int {
		g, _ := m.ToGlobal(types.NewFloat(c))
		return sign * g.Compare(v)
	}
	c := (v.AsFloat() - m.Offset) / m.Scale
	steps := affineBoundSteps
	for ; steps > 0 && side(c) >= 0; steps-- {
		c = math.Nextafter(c, -up)
	}
	for ; steps > 0 && side(c) < 0; steps-- {
		c = math.Nextafter(c, up)
	}
	return types.NewFloat(c), op, steps > 0 && !math.IsNaN(c) && !math.IsInf(c, 0)
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

// RowPositions says where each of globalCols sits in a row the source
// returns: in the projection RemoteCols(globalCols) when the source was
// asked for it, in the whole remote row otherwise; -1 for a constant of
// the fragment.
func (f *Fragment) RowPositions(globalCols []int, projected bool) []int {
	pos := make([]int, len(globalCols))
	next := 0
	for i, g := range globalCols {
		switch rc := f.Columns[g].RemoteCol; {
		case rc < 0:
			pos[i] = -1
		case projected:
			pos[i] = next
			next++
		default:
			pos[i] = rc
		}
	}
	return pos
}

// TranslateInto converts a source's row into the global representation
// of globalCols, coercing to the global column types. pos[i] is where
// globalCols[i] sits in remoteRow, negative for a constant of the
// fragment. It fills dst, which the caller supplies len(globalCols)
// wide.
func (f *Fragment) TranslateInto(dst types.Row, globalSchema *types.Schema, globalCols, pos []int, remoteRow types.Row) error {
	for i, g := range globalCols {
		m := &f.Columns[g]
		var v types.Value
		if p := pos[i]; p >= len(remoteRow) {
			return fmt.Errorf("catalog: remote row too short for fragment %s.%s", f.Source, f.RemoteTable)
		} else if p >= 0 {
			v = remoteRow[p]
		}
		gv, err := m.ToGlobal(v)
		if err == nil && !gv.IsNull() && gv.Kind() != globalSchema.Columns[g].Type {
			gv, err = gv.Coerce(globalSchema.Columns[g].Type)
		}
		if err != nil {
			return fmt.Errorf("catalog: fragment %s.%s column %s: %w",
				f.Source, f.RemoteTable, globalSchema.Columns[g].Name, err)
		}
		dst[i] = gv
	}
	return nil
}

// PruneByPartition reports whether the fragment can be skipped entirely
// for a query filter: true when, on some column its partition predicate
// reads, the values the filter admits and the values the predicate
// admits do not meet (expr.ColumnRange on each side). A conjunct that
// constrains no single column to constants — a disjunction, a function
// of the column — narrows nothing, so the check is conservative.
func (f *Fragment) PruneByPartition(filter expr.Expr) bool {
	if f.Where == nil || filter == nil {
		return false
	}
	pruned := false
	expr.Columns(f.Where, func(c int) {
		if !pruned {
			where, _ := expr.ColumnRange(f.Where, c)
			admitted, _ := expr.ColumnRange(filter, c)
			pruned = where.Intersect(admitted).Empty()
		}
	})
	return pruned
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
