package expr

import (
	"fmt"
	"strings"
	"testing"

	"gis/internal/types"
)

func TestColumnComparison(t *testing.T) {
	x := NewBoundColRef(3, types.KindInt, "x")
	five, null := NewConst(types.NewInt(5)), NewConst(types.Null)
	cases := []struct {
		e   Expr
		op  BinOp  // as read with the column on the left
		con *Const // nil: not recognised
	}{
		{NewBinary(OpEq, x, five), OpEq, five},
		{NewBinary(OpNe, x, five), OpNe, five},
		{NewBinary(OpLt, x, five), OpLt, five},
		{NewBinary(OpLe, x, five), OpLe, five},
		{NewBinary(OpGt, x, five), OpGt, five},
		{NewBinary(OpGe, x, five), OpGe, five},
		{NewBinary(OpEq, five, x), OpEq, five},
		{NewBinary(OpNe, five, x), OpNe, five},
		{NewBinary(OpLt, five, x), OpGt, five},
		{NewBinary(OpLe, five, x), OpGe, five},
		{NewBinary(OpGt, five, x), OpLt, five},
		{NewBinary(OpGe, five, x), OpLe, five},
		{NewBinary(OpEq, x, null), OpEq, null}, // refusing NULL is the caller's business
		{NewBinary(OpAdd, x, five), 0, nil},
		{NewBinary(OpLike, x, NewConst(types.NewString("a%"))), 0, nil},
		{NewBinary(OpEq, x, x), 0, nil},
		{NewBinary(OpEq, five, five), 0, nil},
		{NewBinary(OpEq, NewBinary(OpAdd, x, five), five), 0, nil},
		{x, 0, nil},
	}
	for _, c := range cases {
		col, op, val, ok := ColumnComparison(c.e)
		if ok != (c.con != nil) || op != c.op {
			t.Errorf("ColumnComparison(%s) = %s, %v; want %s, %v", c.e, op, ok, c.op, c.con != nil)
		} else if ok && (col != x || val.String() != c.con.Val.String()) {
			t.Errorf("ColumnComparison(%s) = column %v, constant %s", c.e, col, val)
		}
		if n := testing.AllocsPerRun(100, func() { ColumnComparison(c.e) }); n != 0 {
			t.Errorf("ColumnComparison(%s) allocates %.0f objects, want 0", c.e, n)
		}
	}
}

// showRange renders a Range as an interval, then its keys when it names
// any: "(2, 5]", "[5, 5]", "(-inf, +inf) {1 2}", "(-inf, +inf) {}".
func showRange(r Range) string {
	var b strings.Builder
	switch {
	case r.Lo.Unbounded:
		b.WriteString("(-inf")
	case r.Lo.Inclusive:
		fmt.Fprintf(&b, "[%s", r.Lo.Value)
	default:
		fmt.Fprintf(&b, "(%s", r.Lo.Value)
	}
	switch {
	case r.Hi.Unbounded:
		b.WriteString(", +inf)")
	case r.Hi.Inclusive:
		fmt.Fprintf(&b, ", %s]", r.Hi.Value)
	default:
		fmt.Fprintf(&b, ", %s)", r.Hi.Value)
	}
	if r.Keys != nil {
		keys := make([]string, len(r.Keys))
		for i, k := range r.Keys {
			keys[i] = k.String()
		}
		fmt.Fprintf(&b, " {%s}", strings.Join(keys, " "))
	}
	return b.String()
}

// TestColumnRange: what a filter admits of column x, by the fold of its
// constraints on x; the first conjunct that is none; and that a filter of
// comparisons is folded, intersected and asked without an allocation.
func TestColumnRange(t *testing.T) {
	x, y := NewBoundColRef(3, types.KindInt, "x"), NewBoundColRef(1, types.KindInt, "y")
	num := func(v int64) Expr { return NewConst(types.NewInt(v)) }
	null := NewConst(types.Null)
	in := func(list ...Expr) Expr { return &InList{E: x, List: list} }
	and := func(a, b Expr) Expr { return NewBinary(OpAnd, a, b) }
	for _, c := range []struct {
		e     Expr
		want  string
		empty bool
		other string // the first conjunct that is no constraint on x
	}{
		{nil, "(-inf, +inf)", false, ""},
		{NewBinary(OpEq, x, num(5)), "[5, 5]", false, ""},
		{NewBinary(OpLt, num(5), x), "(5, +inf)", false, ""},
		{and(NewBinary(OpLe, x, num(5)), NewBinary(OpGt, x, num(2))), "(2, 5]", false, ""},
		{and(NewBinary(OpGe, x, num(5)), NewBinary(OpGt, x, num(5))), "(5, +inf)", false, ""},
		{and(NewBinary(OpLt, x, num(5)), NewBinary(OpGe, x, num(5))), "[5, 5)", true, ""},
		{and(NewBinary(OpEq, x, num(5)), NewBinary(OpEq, x, num(6))), "[6, 5]", true, ""},
		// A comparison with NULL admits nothing, whichever way round.
		{NewBinary(OpGt, x, null), "(-inf, +inf) {}", true, ""},
		{NewBinary(OpLe, null, x), "(-inf, +inf) {}", true, ""},
		{and(NewBinary(OpLt, x, num(600)), NewBinary(OpGt, x, null)), "(-inf, 600) {}", true, ""},
		// An IN list is its keys, sorted, once each; NULL names none.
		{in(num(3), num(1), num(1), NewConst(types.NewFloat(2)), null), "(-inf, +inf) {1 2 3}", false, ""},
		{in(null), "(-inf, +inf) {}", true, ""},
		{and(in(num(9), num(3), num(5)), NewBinary(OpGt, x, num(3))), "(3, +inf) {5 9}", false, ""},
		{and(in(num(1), num(2)), in(num(2), num(3))), "(-inf, +inf) {2}", false, ""},
		// Not constraints on x: reported, and they narrow nothing.
		{NewBinary(OpNe, x, num(5)), "(-inf, +inf)", false, "(x <> 5)"},
		{and(NewBinary(OpEq, y, num(5)), NewBinary(OpEq, x, num(5))), "[5, 5]", false, "(y = 5)"},
		{and(NewBinary(OpEq, x, num(5)), NewBinary(OpOr, NewBinary(OpEq, x, num(1)), NewBinary(OpEq, x, num(2)))), "[5, 5]", false, "((x = 1) OR (x = 2))"},
		{&InList{E: x, List: []Expr{num(1)}, Negate: true}, "(-inf, +inf)", false, "(x NOT IN (1))"},
		{in(num(1), NewBinary(OpAdd, y, num(1))), "(-inf, +inf)", false, "(x IN (1, (y + 1)))"},
	} {
		r, other := ColumnRange(c.e, x.Index)
		otherText := ""
		if other != nil {
			otherText = other.String()
		}
		if got := showRange(r); got != c.want || r.Empty() != c.empty || otherText != c.other {
			t.Errorf("ColumnRange(%v) = %s, empty %v, other %q; want %s, %v, %q", c.e, got, r.Empty(), otherText, c.want, c.empty, c.other)
		}
		hasIn := false
		Walk(c.e, func(n Expr) bool {
			_, isIn := n.(*InList)
			hasIn = hasIn || isIn
			return true
		})
		if hasIn {
			continue // an IN list's keys are a slice of their own
		}
		five := types.NewInt(5)
		if n := testing.AllocsPerRun(100, func() {
			r, _ := ColumnRange(c.e, x.Index)
			r = r.Intersect(Range{Lo: Incl(five), Hi: Unbounded})
			r.Empty()
			r.Admits(five)
			var one [1]types.Value
			r.Points(one[:0])
		}); n != 0 {
			t.Errorf("ColumnRange(%v) and its questions allocate %.0f objects, want 0", c.e, n)
		}
	}
}

// rangeDomain is the values FuzzColumnRange asks every range about: a
// few integers around the constants it draws, and NULL.
var rangeDomain = []types.Value{types.Null,
	types.NewInt(-4), types.NewInt(-3), types.NewInt(-2), types.NewInt(-1), types.NewInt(0),
	types.NewInt(1), types.NewInt(2), types.NewInt(3), types.NewInt(4)}

// decodeConstraints reads a conjunction of constraints on x from data,
// a byte for a conjunct's shape (one of the five comparisons, either way
// round, or an IN list of up to four entries), then a byte a constant. A
// constant is an INT from -3 to 3, the same as a FLOAT (4.0-style), a
// FLOAT half-way between two, or NULL.
func decodeConstraints(x *ColRef, data []byte) []Expr {
	constant := func(b byte) Expr {
		v := float64(int(b>>2)%7 - 3)
		switch b & 3 {
		case 0:
			return NewConst(types.NewInt(int64(v)))
		case 1:
			return NewConst(types.NewFloat(v))
		case 2:
			return NewConst(types.NewFloat(v + 0.5))
		default:
			return NewConst(types.Null)
		}
	}
	ops := []BinOp{OpEq, OpLt, OpLe, OpGt, OpGe}
	var out []Expr
	for len(data) >= 2 && len(out) < 8 {
		shape := data[0]
		data = data[1:]
		if shape%6 == 5 {
			n := min(1+int(shape>>3)%4, len(data))
			in := &InList{E: x}
			for _, b := range data[:n] {
				in.List = append(in.List, constant(b))
			}
			out, data = append(out, in), data[n:]
			continue
		}
		op, k := ops[shape%6], constant(data[0])
		data = data[1:]
		if shape&0x80 != 0 {
			out = append(out, NewBinary(op, k, x))
		} else {
			out = append(out, NewBinary(op, x, k))
		}
	}
	return out
}

// FuzzColumnRange: the range a conjunction of constraints folds to admits
// a value exactly when the conjunction holds of it, for every value of a
// small domain and NULL; an empty range admits none of them.
func FuzzColumnRange(f *testing.F) {
	for _, seed := range [][]byte{
		{3, 3},                      // x > NULL
		{0x80, 3},                   // NULL <= x
		{1, 0x18, 3, 3},             // x < 3 AND x > NULL
		{0x1d, 0, 5, 3, 0x10},       // x IN (-3, -2.0, NULL, 1)
		{0x1d, 0x10, 0x11, 0x10, 3}, // x IN (1, 1.0, 1, NULL)
		{4, 0x0c, 1, 0x0e},          // x >= 0 AND x < 0.5
		{0, 0x10, 0, 0x14},          // x = 1 AND x = 2
	} {
		f.Add(seed)
	}
	x := NewBoundColRef(0, types.KindInt, "x")
	f.Fuzz(func(t *testing.T, data []byte) {
		conj := decodeConstraints(x, data)
		filter := Conjoin(conj)
		r, other := ColumnRange(filter, 0)
		if other != nil {
			t.Fatalf("%v: %s is a constraint on x", filter, other)
		}
		for _, v := range rangeDomain {
			want := true
			if filter != nil {
				var err error
				if want, err = EvalBool(filter, types.Row{v}); err != nil {
					t.Fatalf("%v at x = %s: %v", filter, v, err)
				}
			}
			if got := r.Admits(v); got != want {
				t.Fatalf("%v at x = %s: the range %s admits it %v, the filter holds %v", filter, v, showRange(r), got, want)
			}
			if want && r.Empty() {
				t.Fatalf("%v holds at x = %s, and its range %s is empty", filter, v, showRange(r))
			}
		}
	})
}
