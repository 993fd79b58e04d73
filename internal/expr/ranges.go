package expr

import (
	"slices"

	"gis/internal/types"
)

// What a filter says about one column is worked out here, once, for every
// reader: partition pruning (catalog), the kvstore's key range and the
// relstore's index probe, and the capability check that decides what a
// FilterKey source is shipped (source.CanFilter). ColumnConstraint
// recognises a conjunct that constrains one column to constants;
// ColumnRange folds a filter's such conjuncts on a column into a Range.
//
// NULL is decided in one place, constraintRange: a comparison with NULL
// admits nothing, and a NULL entry of an IN list matches nothing. A Range
// therefore never holds NULL, and admits a NULL value only when nothing
// constrains it at all.

// ColumnComparison recognises `column <cmp> constant`: a comparison with
// a column reference on one side and a literal on the other. op reads
// with the column on the left whichever way the operands arrived
// (`5 < x` is x > 5). Every comparison is recognised, <> and a NULL
// literal included; a caller that cannot use one says so itself.
func ColumnComparison(e Expr) (col *ColRef, op BinOp, val types.Value, ok bool) {
	b, isBin := e.(*Binary)
	if !isBin || !b.Op.Comparison() {
		return nil, 0, types.Null, false
	}
	op = b.Op
	col, ok = b.L.(*ColRef)
	con, isConst := b.R.(*Const)
	if !ok || !isConst {
		col, ok = b.R.(*ColRef)
		con, isConst = b.L.(*Const)
		op, _ = op.Commutes() // every comparison does
	}
	if !ok || !isConst {
		return nil, 0, types.Null, false
	}
	return col, op, con.Val, true
}

// ColumnConstraint recognises a conjunct that constrains one column to
// constants — `column <cmp> constant` by any comparison but <>, either
// way round, or `column IN (constants)` — and returns the column. What
// it admits is ColumnRange's business.
func ColumnConstraint(e Expr) (*ColRef, bool) {
	switch n := e.(type) {
	case *Binary:
		col, op, _, ok := ColumnComparison(n)
		return col, ok && op != OpNe
	case *InList:
		col, ok := n.E.(*ColRef)
		if !ok || n.Negate {
			return nil, false
		}
		for _, el := range n.List {
			if _, isConst := el.(*Const); !isConst {
				return nil, false
			}
		}
		return col, true
	default:
		return nil, false
	}
}

// ColumnRange folds every conjunct of filter that constrains column col
// (ColumnConstraint) into the Range of values they admit together. other
// is the first conjunct that does not — a constraint on another column,
// or any other shape — and nil when there is none, in which case a row
// passes the filter exactly when the range admits its value of col.
// Otherwise the range admits at least the values of the rows that pass.
// A nil filter admits every value. Comparisons fold without allocating;
// an IN list's keys are sorted into a slice of their own.
func ColumnRange(filter Expr, col int) (r Range, other Expr) {
	r = Range{Lo: Unbounded, Hi: Unbounded}
	foldRange(filter, col, &r, &other)
	return r, other
}

// foldRange walks the conjuncts of e in order, without collecting them.
func foldRange(e Expr, col int, r *Range, other *Expr) {
	if e == nil {
		return
	}
	if b, ok := e.(*Binary); ok && b.Op == OpAnd {
		foldRange(b.L, col, r, other)
		foldRange(b.R, col, r, other)
		return
	}
	if c, ok := ColumnConstraint(e); !ok || c.Index != col {
		if *other == nil {
			*other = e
		}
		return
	}
	*r = r.Intersect(constraintRange(e))
}

// constraintRange is the Range a conjunct ColumnConstraint recognised
// admits, and the one place NULL is decided.
func constraintRange(e Expr) Range {
	if in, ok := e.(*InList); ok {
		keys := make([]types.Value, 0, len(in.List))
		for _, el := range in.List {
			if v := el.(*Const).Val; !v.IsNull() {
				keys = append(keys, v)
			}
		}
		slices.SortFunc(keys, types.Value.Compare)
		keys = slices.CompactFunc(keys, func(a, b types.Value) bool { return a.Compare(b) == 0 })
		return Range{Lo: Unbounded, Hi: Unbounded, Keys: keys}
	}
	_, op, v, _ := ColumnComparison(e)
	switch {
	case v.IsNull():
		return Range{Lo: Unbounded, Hi: Unbounded, Keys: []types.Value{}}
	case op == OpEq:
		return Range{Lo: Incl(v), Hi: Incl(v)}
	case op == OpLt:
		return Range{Lo: Unbounded, Hi: Excl(v)}
	case op == OpLe:
		return Range{Lo: Unbounded, Hi: Incl(v)}
	case op == OpGt:
		return Range{Lo: Excl(v), Hi: Unbounded}
	default: // OpGe
		return Range{Lo: Incl(v), Hi: Unbounded}
	}
}

// Bound is one end of an interval of values.
type Bound struct {
	Value types.Value
	// Inclusive includes Value itself.
	Inclusive bool
	// Unbounded ignores Value: the interval is open at this end.
	Unbounded bool
}

// Unbounded is the open end.
var Unbounded = Bound{Unbounded: true}

// Incl returns an inclusive end at v.
func Incl(v types.Value) Bound { return Bound{Value: v, Inclusive: true} }

// Excl returns an exclusive end at v.
func Excl(v types.Value) Bound { return Bound{Value: v} }

// ExcludesAbove reports whether v lies beyond b taken as an interval's
// upper end, ExcludesBelow whether it lies short of b taken as its lower.
func (b Bound) ExcludesAbove(v types.Value) bool {
	if b.Unbounded {
		return false
	}
	c := v.Compare(b.Value)
	return c > 0 || (c == 0 && !b.Inclusive)
}

// ExcludesBelow: see ExcludesAbove.
func (b Bound) ExcludesBelow(v types.Value) bool {
	if b.Unbounded {
		return false
	}
	c := v.Compare(b.Value)
	return c < 0 || (c == 0 && !b.Inclusive)
}

// tighter returns whichever of two ends on the same side admits less: the
// higher of two lower ends, the lower of two upper ones, and at one value
// the exclusive end.
func tighter(a, b Bound, upper bool) Bound {
	if a.Unbounded {
		return b
	}
	if b.Unbounded {
		return a
	}
	c := a.Value.Compare(b.Value)
	if upper {
		c = -c
	}
	if c > 0 || (c == 0 && !a.Inclusive) {
		return a
	}
	return b
}

// Range is a set of values of one column: those from Lo to Hi and, when
// Keys is not nil, only the ones Keys names. Keys is sorted, names no
// value twice (1 and 1.0 are one value) and none outside Lo..Hi; an
// empty, non-nil Keys admits nothing. Keys is shared, never written.
type Range struct {
	Lo, Hi Bound
	Keys   []types.Value
}

// Intersect returns the values both ranges admit. It allocates only to
// meet two key sets.
func (r Range) Intersect(o Range) Range {
	out := Range{Lo: tighter(r.Lo, o.Lo, false), Hi: tighter(r.Hi, o.Hi, true), Keys: r.Keys}
	switch {
	case o.Keys == nil:
	case r.Keys == nil:
		out.Keys = o.Keys
	default:
		out.Keys = make([]types.Value, 0, min(len(r.Keys), len(o.Keys)))
		for i, j := 0, 0; i < len(r.Keys) && j < len(o.Keys); {
			switch c := r.Keys[i].Compare(o.Keys[j]); {
			case c < 0:
				i++
			case c > 0:
				j++
			default:
				out.Keys = append(out.Keys, r.Keys[i])
				i, j = i+1, j+1
			}
		}
	}
	if out.Keys != nil {
		// The keys inside the interval are a run of the sorted ones.
		i, j := 0, len(out.Keys)
		for i < j && out.Lo.ExcludesBelow(out.Keys[i]) {
			i++
		}
		for j > i && out.Hi.ExcludesAbove(out.Keys[j-1]) {
			j--
		}
		out.Keys = out.Keys[i:j]
	}
	return out
}

// Empty reports whether the range admits no value.
func (r Range) Empty() bool {
	if r.Keys != nil {
		return len(r.Keys) == 0
	}
	if r.Lo.Unbounded || r.Hi.Unbounded {
		return false
	}
	c := r.Lo.Value.Compare(r.Hi.Value)
	return c > 0 || (c == 0 && !(r.Lo.Inclusive && r.Hi.Inclusive))
}

// Admits reports whether v is in the range. NULL is, only in a range
// that nothing constrains.
func (r Range) Admits(v types.Value) bool {
	if v.IsNull() {
		return r.Keys == nil && r.Lo.Unbounded && r.Hi.Unbounded
	}
	if r.Lo.ExcludesBelow(v) || r.Hi.ExcludesAbove(v) {
		return false
	}
	if r.Keys == nil {
		return true
	}
	_, found := slices.BinarySearchFunc(r.Keys, v, types.Value.Compare)
	return found
}

// Point returns the one value of a range without keys whose ends meet:
// what an equality admits, which a reader that looks values up one by
// one looks up as it would Keys.
func (r Range) Point() (types.Value, bool) {
	if r.Keys != nil || r.Lo.Unbounded || r.Hi.Unbounded || !r.Lo.Inclusive || !r.Hi.Inclusive || r.Lo.Value.Compare(r.Hi.Value) != 0 {
		return types.Null, false
	}
	return r.Lo.Value, true
}
