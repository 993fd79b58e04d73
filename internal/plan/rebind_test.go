package plan

import (
	"context"
	"strings"
	"testing"

	"gis/internal/catalog"
	"gis/internal/sql"
	"gis/internal/types"
)

// planTemplate plans text with params as the engine plans a text it may
// keep: parsed with its parameters' slots, checked by ValueFree on the
// logical plan, then optimized under opts.
func planTemplate(t *testing.T, cat *catalog.Catalog, text string, params []types.Value, opts *Options) (Node, *Params, bool) {
	t.Helper()
	stmt, slots, err := sql.ParseSlots(text, nil, params...)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	logical, err := NewBuilder(cat).BuildSelect(stmt.(*sql.SelectStmt))
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	p := Params{Slots: slots}
	free := ValueFree(logical, &p)
	n, err := Optimize(context.Background(), logical, cat, opts)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	return n, &p, free
}

// rebindOptions are the default options and each switch turned the other
// way.
var rebindOptions = []func(*Options){
	func(*Options) {},
	func(o *Options) { o.FoldConstants = false },
	func(o *Options) { o.PushFilters = false },
	func(o *Options) { o.PruneColumns = false },
	func(o *Options) { o.JoinOrder = OrderSyntactic },
	func(o *Options) { o.JoinOrder = OrderGreedy },
	func(o *Options) { o.ParallelFragments = false },
	func(o *Options) { o.PushAggregates = false },
	func(o *Options) { o.PushTopK = false },
	func(o *Options) { o.ForceStrategy = StrategyShipAll },
	func(o *Options) { o.ForceStrategy = StrategySemiJoin },
}

// valueFreeCases are statements over newBenchCatalog, two sets of
// parameter values each, and whether a plan made for the first stands
// for the second.
var valueFreeCases = []struct {
	name   string
	sql    string
	a, b   []types.Value
	reused bool
}{
	{"pk_lookup", planShapes[0].sql, ints(17), ints(301), true},
	{"fk_agg", planShapes[1].sql, ints(3), ints(39), true},
	{"fk_join_top5", planShapes[2].sql, ints(3), ints(11), true},
	{"fk_join_top5_comma", planShapes[3].sql, ints(3), ints(11), true},
	{"in_list", planShapes[4].sql, ints(1, 2, 3, 5, 8, 13, 21, 34), ints(399, 7, 6, 5, 4, 3, 2, 1), true},
	{"no parameter", "SELECT SUM(amount), COUNT(*) FROM events", nil, nil, true},
	{"two columns", "SELECT oid FROM orders WHERE region = ? AND cust_id = ?",
		[]types.Value{types.NewString("east"), types.NewInt(2)}, []types.Value{types.NewString("west"), types.NewInt(7)}, true},
	{"unpartitioned column of a partitioned table", "SELECT oid, amount FROM events WHERE cust_id = ?", ints(5), ints(6), true},
	{"derived table", "SELECT q.oid FROM (SELECT oid, cust_id FROM orders WHERE cust_id = ?) q WHERE q.oid < 200", ints(5), ints(6), true},
	{"ON conjunct", "SELECT c.name, o.oid FROM customers c JOIN orders o ON c.id = o.cust_id AND o.region = ?",
		[]types.Value{types.NewString("east")}, []types.Value{types.NewString("north")}, true},
	{"left join's ON", "SELECT c.name, o.oid FROM customers c LEFT JOIN orders o ON c.id = o.cust_id AND o.oid = ?", ints(5), ints(6), true},

	{"range", "SELECT oid FROM orders WHERE oid >= ? AND oid < ?", ints(1, 9), ints(2, 5), false},
	{"range_pruned", planShapes[9].sql, ints(120, 140), ints(20, 40), false},
	{"partition column", "SELECT oid, amount FROM events WHERE oid = ?", ints(5), ints(305), false},
	{"value map", "SELECT oid FROM orders_mediated WHERE region = ?", []types.Value{types.NewString("east")}, []types.Value{types.NewString("nowhere")}, false},
	{"unit conversion", "SELECT oid FROM orders_mediated WHERE amount_cents = ?", []types.Value{types.NewFloat(50)}, []types.Value{types.NewFloat(51)}, false},
	{"constant column", "SELECT oid FROM orders_mediated WHERE site = ?", []types.Value{types.NewString("h_rel")}, []types.Value{types.NewString("x")}, false},
	{"column constrained again", "SELECT oid FROM orders WHERE oid = ? AND oid < 100", ints(5), ints(150), false},
	{"column constrained twice", "SELECT oid FROM orders WHERE oid = ? AND oid = ?", ints(5, 5), ints(5, 6), false},
	{"literal in the list", "SELECT oid FROM orders WHERE oid IN (?, 5)", ints(4), ints(5), false},
	{"NOT IN", "SELECT oid FROM orders WHERE oid NOT IN (?, ?)", ints(4, 5), ints(5, 5), false},
	{"not equal", "SELECT oid FROM orders WHERE oid <> ?", ints(4), ints(5), false},
	{"in the select list", "SELECT oid + ? FROM orders WHERE oid < 3", ints(4), ints(5), false},
	{"negated", "SELECT oid FROM orders WHERE oid = -?", ints(4), ints(5), false},
	{"computed", "SELECT oid FROM orders WHERE oid = ? + 1", ints(4), ints(5), false},
	{"disjunction", "SELECT oid FROM orders WHERE oid = ? OR cust_id = 3", ints(4), ints(5), false},
	{"HAVING", "SELECT region, COUNT(*) FROM orders GROUP BY region HAVING COUNT(*) = ?", ints(100), ints(5), false},
	{"grouped column", "SELECT region, COUNT(*) FROM orders GROUP BY region HAVING region = ?",
		[]types.Value{types.NewString("east")}, []types.Value{types.NewString("west")}, false},
	{"another kind", "SELECT oid FROM orders WHERE amount = ?", ints(4), ints(5), false},
	{"NULL", "SELECT oid FROM orders WHERE oid = ?", []types.Value{types.Null}, ints(5), false},
}

// TestValueFree holds ValueFree to its rule over every case, and a plan
// it lets stand to the plan made afresh: rebound to the second values
// under each optimizer variant, it prints as planning the statement with
// them prints, and the plan it was made from prints as it did.
func TestValueFree(t *testing.T) {
	cat := newBenchCatalog(t)
	for _, c := range valueFreeCases {
		for i, tweak := range rebindOptions {
			opts := DefaultOptions()
			tweak(opts)
			n, p, free := planTemplate(t, cat, c.sql, c.a, opts)
			if free != c.reused {
				t.Errorf("%s: ValueFree = %v, want %v\n%s", c.name, free, c.reused, Explain(n))
				break
			}
			if !free {
				continue
			}
			if !p.Fits(c.b) {
				t.Fatalf("%s: the second values do not fit", c.name)
			}
			before := Explain(n)
			fresh, _, _ := planTemplate(t, cat, c.sql, c.b, opts)
			if got, want := Explain(Rebind(n, p, c.b)), Explain(fresh); got != want {
				t.Errorf("%s under variant %d: rebound\n%swant\n%s", c.name, i, got, want)
			}
			if Explain(n) != before {
				t.Errorf("%s under variant %d: rebinding wrote the kept plan:\n%swas\n%s", c.name, i, Explain(n), before)
			}
		}
	}
}

// TestParamsFit holds a later call's values to what the kept plan was
// made for: as many, of the same kinds, and an IN list's all different.
func TestParamsFit(t *testing.T) {
	cat := newBenchCatalog(t)
	_, p, free := planTemplate(t, cat, "SELECT oid FROM orders WHERE oid IN (?, ?, ?) AND region = ?",
		append(ints(1, 2, 3), types.NewString("east")), DefaultOptions())
	if !free {
		t.Fatal("an IN list of parameters and an equality are value-free")
	}
	for _, c := range []struct {
		vals []types.Value
		fits bool
	}{
		{append(ints(7, 8, 9), types.NewString("west")), true},
		{append(ints(7, 8, 7), types.NewString("west")), false},
		{append(ints(7, 8, 9), types.Null), false},
		{append(ints(7, 8), types.NewString("west")), false},
		{[]types.Value{types.NewInt(7), types.NewFloat(8), types.NewInt(9), types.NewString("west")}, false},
	} {
		if got := p.Fits(c.vals); got != c.fits {
			t.Errorf("Fits(%v) = %v, want %v", c.vals, got, c.fits)
		}
	}
}

// TestRebindCopiesOnlyThePath rebinds fk_join_top5's plan: the join's
// right side, which reads no parameter, is the kept plan's, and Rebind
// allocates one object a node it copies, one for the comparison above the
// parameter and one block of constants.
func TestRebindCopiesOnlyThePath(t *testing.T) {
	cat := newBenchCatalog(t)
	n, p, free := planTemplate(t, cat, planShapes[2].sql, ints(3), DefaultOptions())
	if !free {
		t.Fatal("fk_join_top5 is value-free")
	}
	out := Rebind(n, p, ints(9))
	j, rj := findJoin(n), findJoin(out)
	if j == nil || rj == j || rj.R != j.R || rj.L == j.L {
		t.Fatalf("want the join and its left side copied, its right side shared:\n%s", Explain(out))
	}
	if e := Explain(out); !strings.Contains(e, "= 9") || strings.Contains(e, "= 3") {
		t.Errorf("the rebound plan does not read 9 alone:\n%s", e)
	}
	kept := map[Node]bool{}
	var mark func(Node)
	mark = func(x Node) {
		kept[x] = true
		EachInput(x, func(in *Node) { mark(*in) })
	}
	mark(n)
	copied := 0
	var count func(Node)
	count = func(x Node) {
		if !kept[x] {
			copied++
		}
		EachInput(x, func(in *Node) { count(*in) })
	}
	count(out)
	vals := ints(9)
	got := testing.AllocsPerRun(50, func() { Rebind(n, p, vals) })
	t.Logf("Rebind of fk_join_top5 copies %d nodes and allocates %.0f objects", copied, got)
	if want := float64(copied + 2); got > want {
		t.Errorf("Rebind allocates %.0f objects, want at most %.0f:\n%s", got, want, Explain(n))
	}
}
