package plan

import (
	"context"
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
		p.Kept(n)
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

// What becomes of a statement's plan under ValueFree: planned on every
// call, kept and bound to the second values, or kept and planned afresh
// for them because they leave a scan other fragments.
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
// it keeps to the plan made afresh: under each optimizer variant, the
// plan made for the second values reads the fragments LiveFor says it
// does, and when they are the kept plan's, the kept plan with the second
// values bound prints as that plan does, and with the first bound again
// as it did. Under the default options the second values are bound or
// planned afresh as the case says.
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
			fresh, fp, _ := planTemplate(t, cat, c.sql, c.b, opts)
			live := p.LiveFor(c.b)
			switch {
			case live != fp.Live:
				t.Errorf("%s under variant %d: LiveFor %v, the plan made for the values reads %v", c.name, i, live, fp.Live)
			case i == 0 && (live != p.Live) != (c.want == replanned):
				t.Errorf("%s: planned afresh: %v, want %v", c.name, live != p.Live, c.want == replanned)
			case live != p.Live:
			default:
				p.Bind(c.b)
				if Explain(n) != Explain(fresh) {
					t.Errorf("%s under variant %d: bound\n%swant\n%s", c.name, i, Explain(n), Explain(fresh))
				}
				p.Bind(c.a)
				if Explain(n) != before {
					t.Errorf("%s under variant %d: bound back\n%swas\n%s", c.name, i, Explain(n), before)
				}
			}
		}
	}
}

// TestRebindChoosesTheStrategyAgain binds a join whose strategy the
// range's width decides: the kept plan ships the few keys of a narrow
// range and, bound to a wide range, ships both sides, as a plan made for
// it does.
func TestRebindChoosesTheStrategyAgain(t *testing.T) {
	cat := newBenchCatalog(t)
	text := "SELECT o.oid, c.name FROM orders o JOIN customers c ON o.cust_id = c.id WHERE o.oid >= ? AND o.oid < ?"
	n, p, free := planTemplate(t, cat, text, ints(0, 10), DefaultOptions())
	if !free {
		t.Fatal("a range on a two-way join is kept")
	}
	kept := findJoin(n).Strategy
	fresh, _, _ := planTemplate(t, cat, text, ints(0, 400), DefaultOptions())
	if p.LiveFor(ints(0, 400)) != p.Live {
		t.Fatal("a range on an unpartitioned table is planned afresh")
	}
	p.Bind(ints(0, 400))
	if got, want := findJoin(n).Strategy, findJoin(fresh).Strategy; kept != StrategySemiJoin || got != StrategyShipAll || got != want {
		t.Errorf("strategies kept %v, bound %v, afresh %v; want semijoin, shipall, shipall", kept, got, want)
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

// TestBindAllocatesNothing holds a cache hit's planning part to no
// object: checking fk_join_top5's values, the fragments they leave and
// binding them into the plan, a join whose strategy Bind re-derives, and
// a range on the partition column whose fragments LiveFor re-derives.
func TestBindAllocatesNothing(t *testing.T) {
	cat := newBenchCatalog(t)
	for _, c := range []struct {
		name string
		sql  string
		a, b []types.Value
	}{
		{"fk_join_top5", planShapes[2].sql, ints(3), ints(9)},
		{"strategy", "SELECT o.oid, c.name FROM orders o JOIN customers c ON o.cust_id = c.id WHERE o.oid >= ? AND o.oid < ?",
			ints(0, 10), ints(0, 400)},
		{"fragments", planShapes[9].sql, ints(120, 140), ints(101, 149)},
	} {
		n, p, free := planTemplate(t, cat, c.sql, c.a, DefaultOptions())
		if !free {
			t.Fatalf("%s: not kept", c.name)
		}
		got := testing.AllocsPerRun(50, func() {
			if !p.Fits(c.b) || p.LiveFor(c.b) != p.Live {
				t.Fatalf("%s: %v do not fit the kept plan", c.name, c.b)
			}
			p.Bind(c.b)
		})
		t.Logf("%s: a hit allocates %.0f objects in plan", c.name, got)
		if got != 0 {
			t.Errorf("%s: a hit allocates %.0f objects in plan, want 0:\n%s", c.name, got, Explain(n))
		}
	}
}

// TestRecheckAllocatesNothing holds the choices made again for a call's
// values to reading: the fragments of a range on the partition column
// that values a fragment away leave, and of one across a fragment
// boundary, are told apart from the kept plan's without an allocation,
// and a plan made for them reads the fragments LiveFor says.
func TestRecheckAllocatesNothing(t *testing.T) {
	cat := newBenchCatalog(t)
	n, p, free := planTemplate(t, cat, planShapes[9].sql, ints(120, 140), DefaultOptions())
	if !free {
		t.Fatalf("range_pruned is not kept:\n%s", Explain(n))
	}
	for _, away := range [][]types.Value{ints(20, 40), ints(120, 160), ints(140, 120)} {
		live := p.LiveFor(away)
		if live == p.Live {
			t.Errorf("%v leave the kept plan's fragments %v", away, live)
		}
		if _, fp, _ := planTemplate(t, cat, planShapes[9].sql, away, DefaultOptions()); fp.Live != live {
			t.Errorf("%v: LiveFor %v, the plan made for them reads %v", away, live, fp.Live)
		}
		if got := testing.AllocsPerRun(50, func() { p.LiveFor(away) }); got != 0 {
			t.Errorf("%v: telling their fragments allocates %.0f objects", away, got)
		}
	}
}
