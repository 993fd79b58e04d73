package exec

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"gis/internal/catalog"
	"gis/internal/expr"
	"gis/internal/plan"
	"gis/internal/relstore"
	"gis/internal/source"
	"gis/internal/types"
)

var ctx = context.Background()

// valuesNode builds a Values plan node from literal int/string rows.
func valuesNode(schema *types.Schema, rows ...[]any) *plan.Values {
	out := &plan.Values{Out: schema}
	for _, r := range rows {
		exprs := make([]expr.Expr, len(r))
		for i, v := range r {
			switch x := v.(type) {
			case int:
				exprs[i] = expr.NewConst(types.NewInt(int64(x)))
			case string:
				exprs[i] = expr.NewConst(types.NewString(x))
			case float64:
				exprs[i] = expr.NewConst(types.NewFloat(x))
			case nil:
				exprs[i] = expr.NewConst(types.Null)
			default:
				panic(fmt.Sprintf("bad literal %T", v))
			}
		}
		out.Rows = append(out.Rows, exprs)
	}
	return out
}

func intCol(name string) types.Column { return types.Column{Name: name, Type: types.KindInt} }
func strCol(name string) types.Column { return types.Column{Name: name, Type: types.KindString} }

func collect(t *testing.T, n plan.Node) []string {
	t.Helper()
	rows, err := Collect(ctx, n)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

func wantSet(t *testing.T, got []string, want ...string) {
	t.Helper()
	sort.Strings(got)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v\nwant %v", got, want)
	}
}

// joinFixture: L(id, tag) and R(id, val).
func joinFixture() (plan.Node, plan.Node) {
	l := valuesNode(types.NewSchema(intCol("id"), strCol("tag")),
		[]any{1, "a"}, []any{2, "b"}, []any{3, "c"}, []any{nil, "n"})
	r := valuesNode(types.NewSchema(intCol("id"), intCol("val")),
		[]any{1, 10}, []any{1, 11}, []any{3, 30}, []any{4, 40}, []any{nil, 99})
	return l, r
}

func equiJoin(kind plan.JoinKind, l, r plan.Node) *plan.Join {
	cond := expr.NewBinary(expr.OpEq,
		expr.NewBoundColRef(0, types.KindInt, "id"),
		expr.NewBoundColRef(2, types.KindInt, "id"))
	return &plan.Join{Kind: kind, Cond: cond, L: l, R: r, EquiL: []int{0}, EquiR: []int{0}}
}

func TestHashJoinInner(t *testing.T) {
	l, r := joinFixture()
	got := collect(t, equiJoin(plan.JoinInner, l, r))
	wantSet(t, got, "(1, a, 1, 10)", "(1, a, 1, 11)", "(3, c, 3, 30)")
}

func TestHashJoinLeft(t *testing.T) {
	l, r := joinFixture()
	got := collect(t, equiJoin(plan.JoinLeft, l, r))
	wantSet(t, got,
		"(1, a, 1, 10)", "(1, a, 1, 11)", "(3, c, 3, 30)",
		"(2, b, NULL, NULL)", "(NULL, n, NULL, NULL)")
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	l, r := joinFixture()
	got := collect(t, equiJoin(plan.JoinInner, l, r))
	for _, row := range got {
		if row == "(NULL, n, NULL, 99)" {
			t.Error("NULL keys joined")
		}
	}
}

func TestHashJoinExtraCondition(t *testing.T) {
	l, r := joinFixture()
	j := equiJoin(plan.JoinInner, l, r)
	// id = id AND val > 10
	j.Cond = expr.NewBinary(expr.OpAnd, j.Cond,
		expr.NewBinary(expr.OpGt, expr.NewBoundColRef(3, types.KindInt, "val"), expr.NewConst(types.NewInt(10))))
	got := collect(t, j)
	wantSet(t, got, "(1, a, 1, 11)", "(3, c, 3, 30)")
}

func TestNestedLoopNonEqui(t *testing.T) {
	l := valuesNode(types.NewSchema(intCol("x")), []any{1}, []any{5})
	r := valuesNode(types.NewSchema(intCol("y")), []any{3}, []any{4})
	j := &plan.Join{
		Kind: plan.JoinInner,
		Cond: expr.NewBinary(expr.OpLt,
			expr.NewBoundColRef(0, types.KindInt, "x"),
			expr.NewBoundColRef(1, types.KindInt, "y")),
		L: l, R: r,
	}
	got := collect(t, j)
	wantSet(t, got, "(1, 3)", "(1, 4)")
}

// A cross join is an inner join with no condition.
func TestCrossJoin(t *testing.T) {
	l := valuesNode(types.NewSchema(intCol("x")), []any{1}, []any{2})
	r := valuesNode(types.NewSchema(strCol("y")), []any{"a"}, []any{"b"})
	j := &plan.Join{Kind: plan.JoinInner, L: l, R: r}
	got := collect(t, j)
	wantSet(t, got, "(1, a)", "(1, b)", "(2, a)", "(2, b)")
}

func TestFilterProjectLimit(t *testing.T) {
	v := valuesNode(types.NewSchema(intCol("x")),
		[]any{1}, []any{2}, []any{3}, []any{4}, []any{5})
	f := &plan.Filter{
		Pred: expr.NewBinary(expr.OpGt,
			expr.NewBoundColRef(0, types.KindInt, "x"), expr.NewConst(types.NewInt(1))),
		Input: v,
	}
	p := &plan.Project{
		Exprs: []expr.Expr{expr.NewBinary(expr.OpMul,
			expr.NewBoundColRef(0, types.KindInt, "x"), expr.NewConst(types.NewInt(10)))},
		Names: []string{"x10"},
		Input: f,
	}
	lim := &plan.Limit{N: 2, Offset: 1, Input: p}
	got := collect(t, lim)
	wantSet(t, got, "(30)", "(40)")
}

// TestDistinctOperator: DISTINCT plans as a grouping by every column with
// no aggregate. NULL equals NULL for DISTINCT, and each row comes out
// where its first copy came in.
func TestDistinctOperator(t *testing.T) {
	v := valuesNode(types.NewSchema(intCol("x"), strCol("y")),
		[]any{1, "a"}, []any{nil, "a"}, []any{1, "a"}, []any{1, "b"}, []any{nil, nil}, []any{nil, "a"}, []any{2, "a"}, []any{nil, nil})
	d := &plan.Aggregate{Input: v, GroupBy: []expr.Expr{
		expr.NewBoundColRef(0, types.KindInt, "x"), expr.NewBoundColRef(1, types.KindString, "y")}}
	got := collect(t, d)
	if want := "[(1, a) (NULL, a) (1, b) (NULL, NULL) (2, a)]"; fmt.Sprint(got) != want {
		t.Errorf("got %v, want %s", got, want)
	}
}

func TestSortOperatorStability(t *testing.T) {
	v := valuesNode(types.NewSchema(intCol("x"), strCol("y")),
		[]any{2, "b"}, []any{1, "z"}, []any{2, "a"}, []any{1, "y"})
	s := &plan.Sort{
		Keys:  []plan.SortKey{{E: expr.NewBoundColRef(0, types.KindInt, "x")}},
		Input: v,
	}
	rows, err := Collect(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	// Stable: equal keys keep input order.
	want := []string{"(1, z)", "(1, y)", "(2, b)", "(2, a)"}
	for i, r := range rows {
		if r.String() != want[i] {
			t.Fatalf("row %d = %s, want %s", i, r, want[i])
		}
	}
}

func TestSortDescAndMultiKey(t *testing.T) {
	v := valuesNode(types.NewSchema(intCol("x"), intCol("y")),
		[]any{1, 2}, []any{1, 1}, []any{2, 9})
	s := &plan.Sort{
		Keys: []plan.SortKey{
			{E: expr.NewBoundColRef(0, types.KindInt, "x"), Desc: true},
			{E: expr.NewBoundColRef(1, types.KindInt, "y")},
		},
		Input: v,
	}
	rows, _ := Collect(ctx, s)
	want := []string{"(2, 9)", "(1, 1)", "(1, 2)"}
	for i, r := range rows {
		if r.String() != want[i] {
			t.Fatalf("row %d = %s want %s", i, r, want[i])
		}
	}
}

func TestAggregateOperator(t *testing.T) {
	v := valuesNode(types.NewSchema(strCol("g"), intCol("x")),
		[]any{"a", 1}, []any{"a", 2}, []any{"b", 5}, []any{"a", nil})
	a := &plan.Aggregate{
		GroupBy: []expr.Expr{expr.NewBoundColRef(0, types.KindString, "g")},
		Aggs: []plan.AggItem{
			{Kind: expr.AggCount}, // COUNT(*)
			{Kind: expr.AggSum, Arg: expr.NewBoundColRef(1, types.KindInt, "x")},
			{Kind: expr.AggMin, Arg: expr.NewBoundColRef(1, types.KindInt, "x")},
		},
		Input: v,
	}
	got := collect(t, a)
	wantSet(t, got, "(a, 3, 3, 1)", "(b, 1, 5, 5)")
}

func TestGlobalAggregateEmptyInput(t *testing.T) {
	v := valuesNode(types.NewSchema(intCol("x")))
	a := &plan.Aggregate{
		Aggs:  []plan.AggItem{{Kind: expr.AggCount}, {Kind: expr.AggSum, Arg: expr.NewBoundColRef(0, types.KindInt, "x")}},
		Input: v,
	}
	got := collect(t, a)
	wantSet(t, got, "(0, NULL)")
}

func TestUnionSequentialAndParallel(t *testing.T) {
	mk := func() []plan.Node {
		return []plan.Node{
			valuesNode(types.NewSchema(intCol("x")), []any{1}, []any{2}),
			valuesNode(types.NewSchema(intCol("x")), []any{3}),
			valuesNode(types.NewSchema(intCol("x")), []any{4}, []any{5}),
		}
	}
	// One after another, the inputs deliver in plan order.
	got := collect(t, &plan.Union{Inputs: mk(), All: true})
	if want := "[(1) (2) (3) (4) (5)]"; fmt.Sprint(got) != want {
		t.Errorf("sequential union: %v, want %s", got, want)
	}
	got = collect(t, &plan.Union{Inputs: mk(), All: true, Parallel: true})
	wantSet(t, got, "(1)", "(2)", "(3)", "(4)", "(5)")
}

// unrunnable is a plan node the executor does not know: running it fails
// before it has a stream.
type unrunnable struct{ plan.Values }

func TestParallelUnionErrorPropagates(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		// A division by zero inside one branch must surface, and so must
		// a branch that cannot start.
		bad := &plan.Project{
			Exprs: []expr.Expr{expr.NewBinary(expr.OpDiv,
				expr.NewConst(types.NewInt(1)), expr.NewConst(types.NewInt(0)))},
			Names: []string{"boom"},
			Input: valuesNode(types.NewSchema(intCol("x")), []any{1}),
		}
		good := valuesNode(types.NewSchema(intCol("x")), []any{1})
		for _, bad := range []plan.Node{bad, &unrunnable{*good}} {
			u := &plan.Union{Inputs: []plan.Node{good, bad}, All: true, Parallel: parallel}
			if _, err := Collect(ctx, u); err == nil {
				t.Errorf("union (parallel %v) must propagate the error of %T", parallel, bad)
			}
		}
	}
}

// openCounter counts the streams open at once across the sources of one
// table's fragments. A stream's first Next waits up to patience for want
// streams to be open at once, so that streams a union runs together are
// seen together.
type openCounter struct {
	mu         sync.Mutex
	open, peak int
	want       int
	all        chan struct{} // closed once want streams are open at once
	patience   time.Duration
}

type countedSource struct {
	source.Source
	c *openCounter
}

func (s countedSource) Execute(ctx context.Context, q *source.Query) (source.RowIter, error) {
	it, err := s.Source.Execute(ctx, q)
	if err != nil {
		return nil, err
	}
	c := s.c
	c.mu.Lock()
	c.open++
	c.peak = max(c.peak, c.open)
	if c.open == c.want {
		select {
		case <-c.all:
		default:
			close(c.all)
		}
	}
	c.mu.Unlock()
	return &countedIter{RowIter: it, c: c}, nil
}

type countedIter struct {
	source.RowIter
	c               *openCounter
	started, closed bool
}

func (it *countedIter) Next() (types.Row, error) {
	if !it.started {
		select {
		case <-it.c.all:
		case <-time.After(it.c.patience):
		}
	}
	it.started = true
	return it.RowIter.Next()
}

func (it *countedIter) Close() error {
	if !it.closed {
		it.closed = true
		it.c.mu.Lock()
		it.c.open--
		it.c.mu.Unlock()
	}
	return it.RowIter.Close()
}

// TestUnionOpensItsInputsAsItFetches: a union of four fragments fetched
// one after another has one of them open at a time and delivers in plan
// order; fetched at once, it has all four open together. A key-shipped
// join's right side is fetched the same way, as its union says.
func TestUnionOpensItsInputsAsItFetches(t *testing.T) {
	const frags, per = 4, 100 // more rows than the merge channel holds
	schema := types.NewSchema(intCol("id"))
	cat := catalog.New()
	c := &openCounter{want: frags}
	if err := cat.DefineTable("t", schema); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frags; i++ {
		st := relstore.New(fmt.Sprintf("s%d", i))
		if err := st.CreateTable("t", schema, 0); err != nil {
			t.Fatal(err)
		}
		rows := make([]types.Row, per)
		for j := range rows {
			rows[j] = types.Row{types.NewInt(int64(i*per + j))}
		}
		if _, err := st.Insert(ctx, "t", rows); err != nil {
			t.Fatal(err)
		}
		if err := cat.AddSource(countedSource{Source: st, c: c}); err != nil {
			t.Fatal(err)
		}
		if err := cat.MapSimple(ctx, "t", st.Name(), "t"); err != nil {
			t.Fatal(err)
		}
	}
	// k: one key a fragment, on a source nobody counts.
	keys := relstore.New("keys")
	if err := keys.CreateTable("k", schema, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := keys.Insert(ctx, "k", []types.Row{{types.NewInt(0)}, {types.NewInt(per)}, {types.NewInt(2 * per)}, {types.NewInt(3 * per)}}); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddSource(keys); err != nil {
		t.Fatal(err)
	}
	if err := cat.DefineTable("k", schema); err != nil {
		t.Fatal(err)
	}
	if err := cat.MapSimple(ctx, "k", "keys", "k"); err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct {
		sql  string
		rows int
	}{{"SELECT id FROM t", frags * per}, {"SELECT t.id FROM k JOIN t ON k.id = t.id", frags}} {
		for _, parallel := range []bool{false, true} {
			p := (&ownFed{cat: cat}).plan(t, q.sql, func(o *plan.Options) {
				o.ParallelFragments = parallel
				o.ForceStrategy, o.JoinOrder = plan.StrategySemiJoin, plan.OrderSyntactic
			})
			if strings.Contains(q.sql, "JOIN") && !strings.Contains(plan.Explain(p), "strategy=semijoin") {
				t.Fatalf("the join does not ship keys:\n%s", plan.Explain(p))
			}
			// Sequential, each stream waits a little for others it must not
			// see; parallel, for the others it must.
			c.peak, c.all, c.patience = 0, make(chan struct{}), 50*time.Millisecond
			if parallel {
				c.patience = 5 * time.Second
			}
			rows, err := Collect(ctx, p)
			if err != nil || len(rows) != q.rows {
				t.Fatalf("%s, parallel %v: %d rows, %v\n%s", q.sql, parallel, len(rows), err, plan.Explain(p))
			}
			want := 1
			if parallel {
				want = frags
			}
			if c.peak != want {
				t.Errorf("%s, parallel %v: %d streams open at once, want %d", q.sql, parallel, c.peak, want)
			}
			for i, r := range rows {
				if !parallel && q.rows == frags*per && r[0].Int() != int64(i) {
					t.Fatalf("sequential union: row %d is %v", i, r)
				}
			}
		}
	}
}

func TestGlobalScanRejected(t *testing.T) {
	gs := &plan.GlobalScan{}
	// Not decomposed: executor must refuse. Use a schema-less table to
	// keep construction simple.
	defer func() { recover() }()
	if _, err := Run(ctx, gs); err == nil {
		t.Error("undecomposed GlobalScan must error")
	}
}

func TestContextCancelStopsOperators(t *testing.T) {
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	v := valuesNode(types.NewSchema(intCol("x")), []any{1})
	f := &plan.Filter{
		Pred:  expr.NewConst(types.NewBool(true)),
		Input: v,
	}
	it, err := Run(cctx, f)
	if err != nil {
		return // fine: refused upfront
	}
	if _, err := it.Next(); err == nil {
		t.Error("cancelled context must stop iteration")
	}
}

// TestJoinsWithRejectingResidual runs every join kind through both
// candidate sources of the join loop — the hash bucket and, with the equi
// keys taken away, every right row — over inputs whose residual
// condition rejects some key-equal pairs — a rejected pair followed by an accepted one for the same left
// row included, and enough rows that joined rows share slab chunks —
// and compares the collected result with plain nested loops.
func TestJoinsWithRejectingResidual(t *testing.T) {
	var lRows, rRows [][]any
	for i := 0; i < 150; i++ {
		lRows = append(lRows, []any{i % 40, i})
	}
	for i := 0; i < 120; i++ {
		rRows = append(rRows, []any{i % 50, i})
	}
	lRows = append(lRows, []any{nil, 1000}, []any{77, 1001}) // a NULL key; a key with no partner
	// L.k = R.k AND (L.v + R.v) % 3 <> 0
	holds := func(l, r []any) bool {
		return l[0] != nil && r[0] != nil && l[0] == r[0] && (l[1].(int)+r[1].(int))%3 != 0
	}
	str := func(vals ...any) string {
		row := make(types.Row, len(vals))
		for i, v := range vals {
			if v != nil {
				row[i] = types.NewInt(int64(v.(int)))
			}
		}
		return row.String()
	}
	want := map[plan.JoinKind][]string{}
	for _, l := range lRows {
		matched := false
		for _, r := range rRows {
			if holds(l, r) {
				matched = true
				want[plan.JoinInner] = append(want[plan.JoinInner], str(l[0], l[1], r[0], r[1]))
			}
		}
		if !matched {
			want[plan.JoinLeft] = append(want[plan.JoinLeft], str(l[0], l[1], nil, nil))
		}
	}
	want[plan.JoinLeft] = append(want[plan.JoinLeft], want[plan.JoinInner]...)

	schema := types.NewSchema(intCol("k"), intCol("v"))
	mk := func(kind plan.JoinKind) *plan.Join {
		j := equiJoin(kind, valuesNode(schema, lRows...), valuesNode(schema, rRows...))
		sum := expr.NewBinary(expr.OpAdd, expr.NewBoundColRef(1, types.KindInt, "v"), expr.NewBoundColRef(3, types.KindInt, "v"))
		j.Cond = expr.NewBinary(expr.OpAnd, j.Cond,
			expr.NewBinary(expr.OpNe, expr.NewBinary(expr.OpMod, sum, expr.NewConst(types.NewInt(3))), expr.NewConst(types.NewInt(0))))
		return j
	}
	for _, kind := range []plan.JoinKind{plan.JoinInner, plan.JoinLeft} {
		hash := mk(kind)
		wantSet(t, collect(t, hash), want[kind]...)
		nested := mk(kind)
		nested.EquiL, nested.EquiR = nil, nil
		wantSet(t, collect(t, nested), want[kind]...)
	}
}
