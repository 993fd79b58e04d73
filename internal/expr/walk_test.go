package expr

import (
	"testing"

	"gis/internal/types"
)

func TestConjunctsConjoin(t *testing.T) {
	a := bin(OpGt, col("a"), intc(1))
	b := bin(OpLt, col("a"), intc(9))
	c := bin(OpEq, col("s"), strc("x"))
	e := Conjoin([]Expr{a, b, c})
	parts := Conjuncts(e)
	if len(parts) != 3 {
		t.Fatalf("Conjuncts = %d parts", len(parts))
	}
	if parts[0].String() != a.String() || parts[2].String() != c.String() {
		t.Errorf("Conjuncts order wrong: %v", parts)
	}
	if Conjoin(nil) != nil {
		t.Error("Conjoin(nil) must be nil")
	}
	if Conjuncts(nil) != nil {
		t.Error("Conjuncts(nil) must be nil")
	}
	if got := Conjoin([]Expr{nil, a, nil}); got.String() != a.String() {
		t.Errorf("Conjoin skips nils: %v", got)
	}
}

func TestColumnsAndColumnSet(t *testing.T) {
	e := mustBind(t, bin(OpAnd,
		bin(OpGt, col("a"), intc(1)),
		bin(OpEq, col("s"), strc("x"))))
	cols := Columns(e)
	if len(cols) != 2 {
		t.Fatalf("Columns = %v", cols)
	}
	set := ColumnSet(e)
	if _, ok := set[0]; !ok {
		t.Error("ColumnSet missing index 0 (a)")
	}
	if _, ok := set[2]; !ok {
		t.Error("ColumnSet missing index 2 (s)")
	}
}

func TestHasAggregate(t *testing.T) {
	if HasAggregate(bin(OpGt, col("a"), intc(1))) {
		t.Error("plain predicate has no aggregate")
	}
	agg := &AggCall{Kind: AggSum, Arg: col("a")}
	if !HasAggregate(bin(OpGt, agg, intc(1))) {
		t.Error("aggregate not detected")
	}
}

func TestRemapShift(t *testing.T) {
	e := mustBind(t, bin(OpAdd, col("a"), col("b"))) // indexes 0, 1
	r := Remap(e, map[int]int{0: 5, 1: 6})
	cols := Columns(r)
	if cols[0].Index != 5 || cols[1].Index != 6 {
		t.Errorf("Remap = %v", r)
	}
	// Original untouched.
	if Columns(e)[0].Index != 0 {
		t.Error("Remap mutated input")
	}
	s := Shift(e, 3)
	cols = Columns(s)
	if cols[0].Index != 3 || cols[1].Index != 4 {
		t.Errorf("Shift = %v", s)
	}
	if Shift(e, 0) != e {
		t.Error("Shift(0) should return the same tree")
	}
}

func TestIsConstAndFold(t *testing.T) {
	if !IsConst(bin(OpAdd, intc(1), intc(2))) {
		t.Error("1+2 is const")
	}
	if IsConst(bin(OpAdd, col("a"), intc(2))) {
		t.Error("a+2 is not const")
	}
	e := mustBind(t, bin(OpMul, bin(OpAdd, intc(1), intc(2)), col("a")))
	f := FoldConstants(e)
	// (1+2) should fold to 3.
	if f.String() != "(3 * a)" {
		t.Errorf("FoldConstants = %s", f)
	}
	// Division by zero must not fold (error deferred to execution).
	e = mustBind(t, bin(OpDiv, intc(1), intc(0)))
	f = FoldConstants(e)
	if _, isConst := f.(*Const); isConst {
		t.Error("1/0 must not fold to a constant")
	}
}

func TestFoldBooleanIdentities(t *testing.T) {
	p := mustBind(t, bin(OpGt, col("a"), intc(1)))
	cases := []struct {
		e    Expr
		want string
	}{
		{bin(OpAnd, boolc(true), p), p.String()},
		{bin(OpAnd, p, boolc(true)), p.String()},
		{bin(OpAnd, boolc(false), p), "false"},
		{bin(OpOr, boolc(false), p), p.String()},
		{bin(OpOr, boolc(true), p), "true"},
		{bin(OpOr, p, boolc(true)), "true"},
	}
	for _, c := range cases {
		got := FoldConstants(mustBind(t, c.e))
		if got.String() != c.want {
			t.Errorf("fold(%s) = %s, want %s", c.e, got, c.want)
		}
	}
}

func TestTransformPreservesStructure(t *testing.T) {
	e := mustBind(t, &Case{
		Operand: col("a"),
		Whens:   []When{{Cond: intc(1), Then: strc("one")}, {Cond: intc(2), Then: strc("two")}},
		Else:    strc("other"),
	})
	// Identity transform returns an equal tree.
	id := Transform(e, func(n Expr) Expr { return n })
	if id.String() != e.String() {
		t.Errorf("identity transform changed tree: %s vs %s", id, e)
	}
	// Replace all string constants.
	repl := Transform(e, func(n Expr) Expr {
		if c, ok := n.(*Const); ok && c.Val.Kind() == types.KindString {
			return strc("X")
		}
		return n
	})
	if repl.String() != "CASE a WHEN 1 THEN 'X' WHEN 2 THEN 'X' ELSE 'X' END" {
		t.Errorf("transform = %s", repl)
	}
}

func TestCommutes(t *testing.T) {
	cases := []struct {
		in, out BinOp
		ok      bool
	}{
		{OpEq, OpEq, true},
		{OpLt, OpGt, true},
		{OpLe, OpGe, true},
		{OpGt, OpLt, true},
		{OpGe, OpLe, true},
		{OpSub, OpSub, false},
		{OpLike, OpLike, false},
	}
	for _, c := range cases {
		got, ok := c.in.Commutes()
		if ok != c.ok || (ok && got != c.out) {
			t.Errorf("%s.Commutes() = %s,%v", c.in, got, ok)
		}
	}
}

func TestExprEqual(t *testing.T) {
	a := bin(OpGt, col("a"), intc(1))
	b := bin(OpGt, col("a"), intc(1))
	if !Equal(a, b) {
		t.Error("structurally equal exprs must be Equal")
	}
	if Equal(a, nil) || !Equal(nil, nil) {
		t.Error("nil handling broken")
	}
}
