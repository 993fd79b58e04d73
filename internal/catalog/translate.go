package catalog

import (
	"fmt"
	"math"

	"gis/internal/expr"
	"gis/internal/types"
)

// Split decides what the fragment does with a global filter, bound over
// the global schema, for a read's scan and a write's WHERE alike. Each
// conjunct is folded with the fragment's constants in place of its
// constant-mapped columns, which read as the constant on every row the
// fragment holds: one that folds to TRUE is dropped, one that folds to
// FALSE or NULL prunes the fragment, and so does one whose exact remote
// translation is FALSE (a value-mapped column compared with a value no
// code stands for). So does a partition predicate the filter Excludes.
// pruned then reports that no row the fragment holds passes the filter.
// Otherwise a conjunct goes into pushed, in the remote representation,
// when it has an exact remote translation (translateConjunct) and push
// accepts that, and into kept, over the global schema, when not. All but
// Excludes reads only the mapping: over a fragment that MapsLike this
// one, and push answering alike, the filter splits alike.
func (f *Fragment) Split(filter expr.Expr, push func(remote expr.Expr) bool) (pushed, kept expr.Expr, pruned bool) {
	pruned = f.Excludes(filter)
	var conj, pushedBuf, keptBuf [8]expr.Expr
	p, k := pushedBuf[:0], keptBuf[:0]
	for _, c := range expr.AppendConjuncts(conj[:0], filter) {
		if pruned {
			break
		}
		if fc := expr.Transform(c, func(n expr.Expr) expr.Expr {
			if col, ok := n.(*expr.ColRef); ok && col.Index >= 0 && col.Index < len(f.Columns) && f.Columns[col.Index].Const != nil {
				return expr.NewConst(*f.Columns[col.Index].Const)
			}
			return n
		}); fc != c {
			c = expr.FoldConstants(fc)
		}
		if v, ok := c.(*expr.Const); ok {
			pruned = v.Val.Kind() != types.KindBool || !v.Val.Bool()
		} else if rc, ok := f.translateConjunct(c); ok && isFalse(rc) {
			pruned = true
		} else if ok && push(rc) {
			p = append(p, rc)
		} else {
			k = append(k, c)
		}
	}
	if pruned {
		return nil, nil, true
	}
	return expr.Conjoin(p), expr.Conjoin(k), false
}

// Excludes reports whether the fragment's partition predicate and the
// filter admit no common value of a column the predicate reads
// (expr.ColumnRange): no row the fragment holds passes the filter. It
// allocates only where IN lists meet: two on the column, or one of more
// than eight keys.
func (f *Fragment) Excludes(filter expr.Expr) bool {
	return f.ExcludesBound(filter, expr.Binding{})
}

// ExcludesBound is Excludes of filter with b's values bound into it
// (expr.Binding), which it reads without building the bound filter.
func (f *Fragment) ExcludesBound(filter expr.Expr, b expr.Binding) bool {
	if filter == nil {
		return false
	}
	excluded := false
	expr.Columns(f.Where, func(c int) {
		if !excluded {
			var whereBuf, filterBuf [8]types.Value
			where, _ := expr.ColumnRangeIn(f.Where, c, whereBuf[:0])
			admitted := expr.ColumnRangeBound(filter, c, filterBuf[:0], b)
			excluded = where.Intersect(admitted).Empty()
		}
	})
	return excluded
}

// isFalse reports whether a translated conjunct is the constant FALSE:
// no remote row reads as what it asks for.
func isFalse(e expr.Expr) bool {
	v, ok := e.(*expr.Const)
	return ok && v.Val.Kind() == types.KindBool && !v.Val.Bool()
}

// Holds reports whether the global row is the fragment's to hold: its
// partition predicate holds of it, and each constant-mapped column is
// NULL or the constant, as it reads back. Written rows are routed by it.
func (f *Fragment) Holds(row types.Row) (bool, error) {
	for g := range f.Columns {
		if c := f.Columns[g].Const; c != nil && !row[g].IsNull() && !row[g].Equal(*c) {
			return false, nil
		}
	}
	if f.Where == nil {
		return true, nil
	}
	return expr.EvalBool(f.Where, row)
}

// Decides reports whether Holds reads global column col: the partition
// predicate reads it, or it is constant-mapped. Writing such a column may
// move a row to another fragment.
func (f *Fragment) Decides(col int) bool {
	decides := f.Columns[col].Const != nil
	expr.Columns(f.Where, func(c int) { decides = decides || c == col })
	return decides
}

// translateConjunct rewrites one conjunct of a global-schema predicate
// into the fragment's remote schema: a predicate that holds of a remote
// row exactly when the conjunct holds of its translation. ok is false
// when there is none to be had:
//   - it references a transformed column in a shape other than
//     <col> cmp <const>,
//   - it needs a mapping inverted that does not invert, or not exactly
//     (translateComparison),
//   - it contains a subquery.
func (f *Fragment) translateConjunct(c expr.Expr) (expr.Expr, bool) {
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

// translateIdentity rewrites c, every column of which is identity-mapped,
// into the remote schema: each reference becomes the fragment's own
// reference to the remote column (RemoteRef), and a reference that already
// reads as that one — the same position, name and type, unqualified — is
// kept, so that a conjunct the mapping leaves as it is comes back as it
// went in, and nothing is built for it.
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
		if ref := f.RemoteRef(col.Index); *col != *ref {
			return ref
		}
		return n
	})
	return out, true
}

// translateComparison handles <col> cmp <const> over a transformed
// column, and only where the source's comparison accepts exactly the
// rows the global one does:
//   - a value map inverts the constant of = and <> through ToRemote;
//     where it has no remote form, no remote row reads as it, so = is
//     FALSE and <> stays; codes need not sort as what they stand for,
//     so an ordering comparison stays;
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
	rv := val
	switch {
	case m.ValueMap != nil && op != expr.OpEq && op != expr.OpNe,
		m.Retyped() && !(m.remoteKind.Numeric() && m.globalKind.Numeric()):
		return nil, false
	case m.hasAffine():
		if rv, op, ok = m.affineBound(op, val); !ok {
			return nil, false
		}
	case m.Retyped():
		// INT and FLOAT compare as numbers: the constant goes as written.
	default:
		if rv, ok = m.ToRemote(val); !ok {
			if op == expr.OpEq && m.InvertsExactly() {
				// No remote row reads as val: the conjunct selects none.
				return expr.NewConst(types.NewBool(false)), true
			}
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

// TranslateValue rewrites a global-space value expression (the right side
// of SET col = e, or an INSERT value) into the remote representation for
// the fragment column targetCol. It succeeds for constants (inverted
// through the target mapping) and for expressions whose referenced
// columns — and the target — are identity-mapped.
func (f *Fragment) TranslateValue(e expr.Expr, targetCol int) (expr.Expr, bool) {
	m := f.Columns[targetCol]
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
