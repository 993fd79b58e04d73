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
	if free {
		p.Kept()
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

// What becomes of a statement's plan under ValueFree and Rebind: planned
// on every call, kept and rebound to the second values, or kept and
// planned afresh for them because they leave a scan other fragments.
const (
	planned = iota
	rebound
	replanned
)

// chainSQL joins three relations, which the optimizer orders by estimate.
const chainSQL = "SELECT c.name, o.oid, e.oid FROM customers c JOIN orders o ON c.id = o.cust_id JOIN events e ON e.cust_id = c.id WHERE "

// valueFreeCases are statements over newBenchCatalog, two sets of
// parameter values each, and what becomes of a plan made for the first
// when the second are bound, under the default options.
var valueFreeCases = []struct {
	name string
	sql  string
	a, b []types.Value
	want int
}{
	{"pk_lookup", planShapes[0].sql, ints(17), ints(301), rebound},
	{"fk_agg", planShapes[1].sql, ints(3), ints(39), rebound},
	{"fk_join_top5", planShapes[2].sql, ints(3), ints(11), rebound},
	{"fk_join_top5_comma", planShapes[3].sql, ints(3), ints(11), rebound},
	{"in_list", planShapes[4].sql, ints(1, 2, 3, 5, 8, 13, 21, 34), ints(399, 7, 6, 5, 4, 3, 2, 1), rebound},
	{"no parameter", "SELECT SUM(amount), COUNT(*) FROM events", nil, nil, rebound},
	{"two columns", "SELECT oid FROM orders WHERE region = ? AND cust_id = ?",
		[]types.Value{types.NewString("east"), types.NewInt(2)}, []types.Value{types.NewString("west"), types.NewInt(7)}, rebound},
	{"unpartitioned column of a partitioned table", "SELECT oid, amount FROM events WHERE cust_id = ?", ints(5), ints(6), rebound},
	{"derived table", "SELECT q.oid FROM (SELECT oid, cust_id FROM orders WHERE cust_id = ?) q WHERE q.oid < 200", ints(5), ints(6), rebound},
	{"ON conjunct", "SELECT c.name, o.oid FROM customers c JOIN orders o ON c.id = o.cust_id AND o.region = ?",
		[]types.Value{types.NewString("east")}, []types.Value{types.NewString("north")}, rebound},
	{"left join's ON", "SELECT c.name, o.oid FROM customers c LEFT JOIN orders o ON c.id = o.cust_id AND o.oid = ?", ints(5), ints(6), rebound},

	{"range", "SELECT oid FROM orders WHERE oid >= ? AND oid < ?", ints(1, 9), ints(2, 5), rebound},
	{"range turned round", "SELECT oid FROM orders WHERE ? <= oid AND ? > oid", ints(1, 9), ints(2, 300), rebound},
	{"empty range", "SELECT oid FROM orders WHERE oid >= ? AND oid < ?", ints(1, 9), ints(9, 1), rebound},
	{"range from empty", "SELECT oid FROM orders WHERE oid >= ? AND oid < ?", ints(5, 5), ints(1, 9), rebound},
	{"BETWEEN", "SELECT oid FROM orders WHERE oid BETWEEN ? AND 9", ints(4), ints(5), rebound},
	{"threshold", planShapes[5].sql, []types.Value{types.NewFloat(250)}, []types.Value{types.NewFloat(20)}, rebound},
	{"sum_scaled", planShapes[6].sql, ints(100, 300), ints(0, 400), rebound},
	{"range_pruned", planShapes[9].sql, ints(120, 140), ints(20, 40), replanned},
	{"range_pruned within its fragment", planShapes[9].sql, ints(120, 140), ints(101, 149), rebound},
	{"range across a fragment boundary", planShapes[9].sql, ints(120, 160), ints(110, 190), rebound},
	{"range narrowed to one fragment", planShapes[9].sql, ints(120, 160), ints(120, 140), replanned},
	{"range over every fragment", planShapes[9].sql, ints(0, 400), ints(-5, 1000), rebound},
	{"empty range on the partition column", planShapes[9].sql, ints(140, 120), ints(7, 7), rebound},
	{"range on the partition column emptied", planShapes[9].sql, ints(120, 140), ints(140, 120), replanned},
	{"partition column", "SELECT oid, amount FROM events WHERE oid = ?", ints(5), ints(305), replanned},
	{"partition column, same fragment", "SELECT oid, amount FROM events WHERE oid = ?", ints(5), ints(6), rebound},
	{"IN list on the partition column", "SELECT oid FROM events WHERE oid IN (?, ?)", ints(5, 6), ints(7, 305), replanned},
	{"IN list within its fragment", "SELECT oid FROM events WHERE oid IN (?, ?)", ints(5, 6), ints(7, 8), rebound},
	{"column constrained again", "SELECT oid FROM orders WHERE oid = ? AND oid < 100", ints(5), ints(150), rebound},
	{"column constrained twice", "SELECT oid FROM orders WHERE oid = ? AND oid = ?", ints(5, 5), ints(5, 6), rebound},
	{"semijoin_sel", planShapes[8].sql, ints(3, 7), ints(0, 40), rebound},
	{"strategy flips", "SELECT o.oid, c.name FROM orders o JOIN customers c ON o.cust_id = c.id WHERE o.oid >= ? AND o.oid < ?", ints(0, 10), ints(0, 400), rebound},
	{"strategy flips back", "SELECT o.oid, c.name FROM orders o JOIN customers c ON o.cust_id = c.id WHERE o.oid >= ? AND o.oid < ?", ints(0, 400), ints(0, 10), rebound},
	{"range in a left join's ON", "SELECT c.name, o.oid FROM customers c LEFT JOIN orders o ON c.id = o.cust_id AND o.oid < ?", ints(5), ints(390), rebound},
	{"chain of three, equality", chainSQL + "o.oid = ?", ints(5), ints(6), rebound},
	{"chain of three, range", chainSQL + "o.oid < ?", ints(5), ints(390), planned},
	{"join over an aggregate", "SELECT q.cust_id, c.name FROM (SELECT cust_id, COUNT(*) AS n FROM events WHERE amount < ? GROUP BY cust_id) q JOIN customers c ON c.id = q.cust_id",
		[]types.Value{types.NewFloat(2)}, []types.Value{types.NewFloat(400)}, planned},
	{"join over a limit", "SELECT q.oid, c.name FROM (SELECT oid, cust_id FROM events WHERE amount < ? ORDER BY amount LIMIT 100) q JOIN customers c ON c.id = q.cust_id",
		[]types.Value{types.NewFloat(2)}, []types.Value{types.NewFloat(400)}, rebound},

	{"value map", "SELECT oid FROM orders_mediated WHERE region = ?", []types.Value{types.NewString("east")}, []types.Value{types.NewString("nowhere")}, planned},
	{"unit conversion", "SELECT oid FROM orders_mediated WHERE amount_cents = ?", []types.Value{types.NewFloat(50)}, []types.Value{types.NewFloat(51)}, planned},
	{"range over a unit conversion", "SELECT oid FROM orders_mediated WHERE amount_cents < ?", []types.Value{types.NewFloat(50)}, []types.Value{types.NewFloat(51)}, planned},
	{"constant column", "SELECT oid FROM orders_mediated WHERE site = ?", []types.Value{types.NewString("h_rel")}, []types.Value{types.NewString("x")}, planned},
	{"literal in the list", "SELECT oid FROM orders WHERE oid IN (?, 5)", ints(4), ints(5), planned},
	{"NOT IN", "SELECT oid FROM orders WHERE oid NOT IN (?, ?)", ints(4, 5), ints(5, 5), planned},
	{"not equal", "SELECT oid FROM orders WHERE oid <> ?", ints(4), ints(5), planned},
	{"in the select list", "SELECT oid + ? FROM orders WHERE oid < 3", ints(4), ints(5), planned},
	{"negated", "SELECT oid FROM orders WHERE oid = -?", ints(4), ints(5), planned},
	{"computed", "SELECT oid FROM orders WHERE oid = ? + 1", ints(4), ints(5), planned},
	{"disjunction", "SELECT oid FROM orders WHERE oid = ? OR cust_id = 3", ints(4), ints(5), planned},
	{"HAVING", "SELECT region, COUNT(*) FROM orders GROUP BY region HAVING COUNT(*) = ?", ints(100), ints(5), planned},
	{"grouped column", "SELECT region, COUNT(*) FROM orders GROUP BY region HAVING region = ?",
		[]types.Value{types.NewString("east")}, []types.Value{types.NewString("west")}, planned},
	{"another kind", "SELECT oid FROM orders WHERE amount = ?", ints(4), ints(5), planned},
	{"NULL", "SELECT oid FROM orders WHERE oid = ?", []types.Value{types.Null}, ints(5), planned},
}

// TestValueFree holds ValueFree to its rule over every case, and a plan
// it keeps to the plan made afresh: rebound to the second values under
// each optimizer variant, it prints as planning the statement with them
// prints, or Rebind reports that they are planned afresh; the plan it was
// made from prints as it did. Under the default options the second values
// are rebound or planned afresh as the case says.
func TestValueFree(t *testing.T) {
	cat := newBenchCatalog(t)
	for _, c := range valueFreeCases {
		for i, tweak := range rebindOptions {
			opts := DefaultOptions()
			tweak(opts)
			n, p, free := planTemplate(t, cat, c.sql, c.a, opts)
			if free != (c.want != planned) {
				t.Errorf("%s: ValueFree = %v, want %v\n%s", c.name, free, !free, Explain(n))
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
			out := Rebind(n, p, c.b)
			switch {
			case i == 0 && (out == nil) != (c.want == replanned):
				t.Errorf("%s: Rebind planned afresh: %v, want %v", c.name, out == nil, c.want == replanned)
			case out == nil:
			case Explain(out) != Explain(fresh):
				t.Errorf("%s under variant %d: rebound\n%swant\n%s", c.name, i, Explain(out), Explain(fresh))
			}
			if Explain(n) != before {
				t.Errorf("%s under variant %d: rebinding wrote the kept plan:\n%swas\n%s", c.name, i, Explain(n), before)
			}
		}
	}
}

// TestRebindChoosesTheStrategyAgain rebinds a join whose strategy the
// range's width decides: the kept plan ships the few keys of a narrow
// range and the rebound one, for a wide range, ships both sides, as a
// plan made for it does.
func TestRebindChoosesTheStrategyAgain(t *testing.T) {
	cat := newBenchCatalog(t)
	text := "SELECT o.oid, c.name FROM orders o JOIN customers c ON o.cust_id = c.id WHERE o.oid >= ? AND o.oid < ?"
	n, p, free := planTemplate(t, cat, text, ints(0, 10), DefaultOptions())
	if !free {
		t.Fatal("a range on a two-way join is kept")
	}
	fresh, _, _ := planTemplate(t, cat, text, ints(0, 400), DefaultOptions())
	out := Rebind(n, p, ints(0, 400))
	if out == nil {
		t.Fatal("a range on an unpartitioned table is planned afresh")
	}
	if kept, got, want := findJoin(n).Strategy, findJoin(out).Strategy, findJoin(fresh).Strategy; kept != StrategySemiJoin || got != StrategyShipAll || got != want {
		t.Errorf("strategies kept %v, rebound %v, afresh %v; want semijoin, shipall, shipall", kept, got, want)
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

// TestRecheckAllocatesNothing holds the choices Rebind makes again to
// reading: rebinding a join whose strategy it re-derives, and a range on
// the partition column whose fragments it re-derives, allocates what
// copying the path does without them, and values that leave the scan
// other fragments are refused before anything is allocated.
func TestRecheckAllocatesNothing(t *testing.T) {
	cat := newBenchCatalog(t)
	for _, c := range []struct {
		name       string
		sql        string
		a, b, away []types.Value
	}{
		{"strategy", "SELECT o.oid, c.name FROM orders o JOIN customers c ON o.cust_id = c.id WHERE o.oid >= ? AND o.oid < ?",
			ints(0, 10), ints(0, 400), nil},
		{"fragments", planShapes[9].sql, ints(120, 140), ints(101, 149), ints(20, 40)},
	} {
		n, p, free := planTemplate(t, cat, c.sql, c.a, DefaultOptions())
		if !free {
			t.Fatalf("%s: not kept", c.name)
		}
		bare := *p
		bare.priced, bare.nPrune = false, 0
		rechecked := testing.AllocsPerRun(50, func() { Rebind(n, p, c.b) })
		copied := testing.AllocsPerRun(50, func() { Rebind(n, &bare, c.b) })
		t.Logf("%s: Rebind allocates %.0f objects, %.0f without the recheck", c.name, rechecked, copied)
		if rechecked != copied {
			t.Errorf("%s: the recheck allocates %.0f objects", c.name, rechecked-copied)
		}
		if c.away == nil {
			continue
		}
		if Rebind(n, p, c.away) != nil {
			t.Fatalf("%s: values in other fragments rebound", c.name)
		}
		if got := testing.AllocsPerRun(50, func() { Rebind(n, p, c.away) }); got != 0 {
			t.Errorf("%s: refusing values in other fragments allocates %.0f objects", c.name, got)
		}
	}
}
