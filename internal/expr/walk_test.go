package expr

import (
	"slices"
	"testing"

	"gis/internal/types"
)

func TestConjunctsConjoin(t *testing.T) {
	a := bin(OpGt, col("a"), intc(1))
	b := bin(OpLt, col("a"), intc(9))
	c := bin(OpEq, col("s"), strc("x"))
	e := Conjoin([]Expr{a, b, c})
	var buf [8]Expr
	parts := AppendConjuncts(buf[:0], e)
	if len(parts) != 3 {
		t.Fatalf("AppendConjuncts = %d parts", len(parts))
	}
	if parts[0] != Expr(a) || parts[1] != Expr(b) || parts[2] != Expr(c) {
		t.Errorf("AppendConjuncts order wrong: %v", parts)
	}
	if got := AppendConjuncts(parts[:1], c); len(got) != 2 || got[0] != Expr(a) || got[1] != Expr(c) {
		t.Errorf("AppendConjuncts must keep what dst holds: %v", got)
	}
	if n := testing.AllocsPerRun(100, func() {
		var buf [8]Expr
		for _, p := range AppendConjuncts(buf[:0], e) {
			p.ResultType()
		}
	}); n != 0 {
		t.Errorf("AppendConjuncts into a stack buffer allocates %.0f objects, want 0", n)
	}
	if Conjoin(nil) != nil {
		t.Error("Conjoin(nil) must be nil")
	}
	if AppendConjuncts(nil, nil) != nil {
		t.Error("AppendConjuncts(nil, nil) must be nil")
	}
	if got := Conjoin([]Expr{nil, a, nil}); got.String() != a.String() {
		t.Errorf("Conjoin skips nils: %v", got)
	}
}

// columnsOf lists what Columns reports, in order.
func columnsOf(e Expr) []int {
	var out []int
	Columns(e, func(i int) { out = append(out, i) })
	return out
}

func TestColumns(t *testing.T) {
	e := mustBind(t, bin(OpAnd,
		bin(OpGt, col("a"), intc(1)),
		bin(OpOr, bin(OpEq, col("s"), strc("x")), bin(OpLt, col("a"), intc(9)))))
	if got := columnsOf(e); !slices.Equal(got, []int{0, 2, 0}) {
		t.Errorf("Columns = %v, want [0 2 0] (a, s, a in visit order)", got)
	}
	// An unbound reference has no position to report.
	if got := columnsOf(bin(OpGt, col("a"), intc(1))); got != nil {
		t.Errorf("Columns of an unbound tree = %v", got)
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
	r := Remap(e, []int{5, 6})
	if got := columnsOf(r); !slices.Equal(got, []int{5, 6}) {
		t.Errorf("Remap = %v", got)
	}
	// Original untouched.
	if got := columnsOf(e); !slices.Equal(got, []int{0, 1}) {
		t.Error("Remap mutated input")
	}
	// -1 and a position past the mapping leave a reference alone.
	if got := columnsOf(Remap(e, []int{-1})); !slices.Equal(got, []int{0, 1}) {
		t.Errorf("Remap through [-1] = %v", got)
	}
	s := Shift(e, 3)
	if got := columnsOf(s); !slices.Equal(got, []int{3, 4}) {
		t.Errorf("Shift = %v", got)
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

// everyNode returns a tree holding each of the eleven node types, with
// bound column references 0..5.
func everyNode() Expr {
	ref := func(i int) *ColRef { return NewBoundColRef(i, types.KindInt, "") }
	return &Case{
		Operand: &Cast{E: ref(0), To: types.KindInt},
		Whens: []When{
			{
				Cond: &InList{E: ref(1), List: []Expr{intc(1), &Unary{Op: OpNeg, E: ref(2)}}},
				Then: &Call{Name: "ABS", Args: []Expr{bin(OpAdd, ref(3), intc(2))}},
			},
			{
				Cond: &IsNull{E: &AggCall{Kind: AggSum, Arg: ref(4)}},
				Then: &Subquery{Mode: SubIn, Operand: ref(5)},
			},
		},
		Else: intc(3),
	}
}

// TestWalkVisitOrder pins, for every node type, the order in which a
// node's children are visited: operand before list, WHEN before THEN
// before ELSE, arguments left to right.
func TestWalkVisitOrder(t *testing.T) {
	k := make([]Expr, 6)
	for i := range k {
		k[i] = intc(int64(i))
	}
	cases := []struct {
		name string
		node Expr
		want []Expr
	}{
		{"ColRef", col("a"), nil},
		{"Const", intc(9), nil},
		{"Binary", bin(OpAdd, k[0], k[1]), k[:2]},
		{"Unary", &Unary{Op: OpNot, E: k[0]}, k[:1]},
		{"IsNull", &IsNull{E: k[0]}, k[:1]},
		{"InList", &InList{E: k[0], List: []Expr{k[1], k[2]}}, k[:3]},
		{"InList empty", &InList{E: k[0]}, k[:1]},
		{"Case", &Case{Operand: k[0], Whens: []When{{k[1], k[2]}, {k[3], k[4]}}, Else: k[5]}, k},
		{"Case searched", &Case{Whens: []When{{k[0], k[1]}}}, k[:2]},
		{"Cast", &Cast{E: k[0], To: types.KindInt}, k[:1]},
		{"Call", &Call{Name: "F", Args: []Expr{k[0], k[1], k[2]}}, k[:3]},
		{"Call no args", &Call{Name: "F"}, nil},
		{"AggCall", &AggCall{Kind: AggSum, Arg: k[0]}, k[:1]},
		{"AggCall star", &AggCall{Kind: AggCount}, nil},
		{"Subquery in", &Subquery{Mode: SubIn, Operand: k[0]}, k[:1]},
		{"Subquery exists", &Subquery{Mode: SubExists}, nil},
	}
	for _, c := range cases {
		var got []Expr
		Walk(c.node, func(n Expr) bool {
			got = append(got, n)
			return true
		})
		if len(got) != len(c.want)+1 || got[0] != c.node {
			t.Errorf("%s: visited %d nodes, want the node and %d children", c.name, len(got), len(c.want))
			continue
		}
		for i, w := range c.want {
			if got[i+1] != w {
				t.Errorf("%s: child %d visited out of order", c.name, i)
			}
		}
		// Transform sees the same children in the same order, then the node.
		got = got[:0]
		Transform(c.node, func(n Expr) Expr {
			got = append(got, n)
			return n
		})
		if len(got) != len(c.want)+1 || got[len(got)-1] != c.node {
			t.Errorf("%s: Transform visited %d nodes, want %d children and the node", c.name, len(got), len(c.want))
			continue
		}
		for i, w := range c.want {
			if got[i] != w {
				t.Errorf("%s: Transform child %d out of order", c.name, i)
			}
		}
	}
}

func TestWalkSkipsChildrenOnFalse(t *testing.T) {
	n := 0
	Walk(everyNode(), func(e Expr) bool {
		n++
		_, isIn := e.(*InList)
		return !isIn
	})
	// 18 nodes in all; the IN list hides its operand, a constant and a
	// negation over a column.
	if n != 14 {
		t.Errorf("visited %d nodes, want 14", n)
	}
}

// TestTraversalAllocatesNothing: walking a tree, enumerating its columns
// and rewriting it without a change build no temporaries.
func TestTraversalAllocatesNothing(t *testing.T) {
	e := everyNode()
	identity := []int{0, 1, 2, 3, 4, 5}
	seen := make([]bool, 6)
	nodes := 0
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"Walk", func() { Walk(e, func(Expr) bool { nodes++; return true }) }},
		{"Columns", func() { Columns(e, func(i int) { seen[i] = true }) }},
		{"Transform", func() { Transform(e, func(n Expr) Expr { return n }) }},
		{"Remap", func() { Remap(e, identity) }},
		{"HasAggregate", func() { HasAggregate(e) }},
		{"IsConst", func() { IsConst(e) }},
	} {
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s allocates %.0f objects, want 0", c.name, n)
		}
	}
	for i, s := range seen {
		if !s {
			t.Errorf("Columns missed index %d", i)
		}
	}
}

// TestTransformCopiesOnlyTheChangedPath: a node none of whose children
// changed is returned as it is, and a change to one leaf copies that
// leaf's ancestors and nothing else.
func TestTransformCopiesOnlyTheChangedPath(t *testing.T) {
	e := everyNode().(*Case)
	if got := Transform(e, func(n Expr) Expr { return n }); got != Expr(e) {
		t.Error("identity Transform must return the same node")
	}
	if got := Remap(e, []int{0, 1, 2, 3, 4, 5}); got != Expr(e) {
		t.Error("Remap of every column onto itself must return the same node")
	}
	if got := Remap(e, []int{-1, -1}); got != Expr(e) {
		t.Error("Remap with no mapped column must return the same node")
	}

	// Move column 3: ABS((3 + 2)) in the first THEN.
	got := Remap(e, []int{0, 1, 2, 7}).(*Case)
	if got == e {
		t.Fatal("the root is an ancestor of the changed leaf and must be copied")
	}
	if got.String() == e.String() || e.Whens[0].Then.(*Call).Args[0].(*Binary).L.(*ColRef).Index != 3 {
		t.Error("Remap must change the copy and leave the input alone")
	}
	if got.Operand != e.Operand || got.Else != e.Else || got.Whens[1] != e.Whens[1] || got.Whens[0].Cond != e.Whens[0].Cond {
		t.Error("subtrees without the changed leaf must be shared, not copied")
	}
	call, old := got.Whens[0].Then.(*Call), e.Whens[0].Then.(*Call)
	if call == old || call.Args[0] == old.Args[0] {
		t.Error("Call and Binary above the changed leaf must be copies")
	}
	if call.Args[0].(*Binary).R != old.Args[0].(*Binary).R {
		t.Error("the changed leaf's sibling must be shared")
	}
	if call.Args[0].(*Binary).L.(*ColRef).Index != 7 {
		t.Errorf("column 3 not remapped: %s", got)
	}
	// 4 ancestors (Binary, Call, Case and its Whens, Args slices) + the leaf.
	if n := testing.AllocsPerRun(100, func() { Remap(e, []int{0, 1, 2, 7}) }); n > 6 {
		t.Errorf("one-leaf Remap allocates %.0f objects, want at most 6", n)
	}
}
