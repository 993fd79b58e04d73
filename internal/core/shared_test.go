package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"gis/internal/catalog"
	"gis/internal/expr"
	"gis/internal/plan"
	"gis/internal/relstore"
	"gis/internal/sql"
	"gis/internal/types"
)

// sharedEngine lays out, in process, the federation plan
// TestPlanAllocations plans over: customers and orders (primary key oid,
// index on cust_id) on two relstores, orders_cents and orders_mediated
// mapping orders' rows through an affine conversion, a value map and a
// constant, and events range-partitioned on oid over eight more, alike.
func sharedEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	cat := e.Catalog()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	orders := types.NewSchema(
		types.Column{Name: "oid", Type: types.KindInt},
		types.Column{Name: "cust_id", Type: types.KindInt},
		types.Column{Name: "amount", Type: types.KindFloat},
		types.Column{Name: "region", Type: types.KindString},
	)
	customers := types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "name", Type: types.KindString},
		types.Column{Name: "segment", Type: types.KindString},
	)
	orderRows := func(lo, hi int) []types.Row {
		rows := make([]types.Row, 0, hi-lo)
		for i := lo; i < hi; i++ {
			rows = append(rows, types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 40)),
				types.NewFloat(float64(i%500) + 0.5), types.NewString([]string{"north", "south", "east", "west"}[i%4])})
		}
		return rows
	}
	store := func(name, table string, schema *types.Schema, rows []types.Row, index int) {
		st := relstore.New(name)
		check(st.CreateTable(table, schema, 0))
		mustInsert(t, st, table, rows)
		if index >= 0 {
			check(st.CreateIndex(table, index))
		}
		check(cat.AddSource(st))
	}
	custRows := make([]types.Row, 40)
	for i := range custRows {
		custRows[i] = types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("cust%d", i)), types.NewString("retail")}
	}
	store("src_c", "customers", customers, custRows, -1)
	store("src_o", "orders", orders, orderRows(0, 400), 1)
	check(cat.DefineTable("customers", customers))
	check(cat.MapSimple(ctx, "customers", "src_c", "customers"))
	check(cat.DefineTable("orders", orders))
	check(cat.MapSimple(ctx, "orders", "src_o", "orders"))
	cents := types.NewSchema(
		types.Column{Name: "oid", Type: types.KindInt},
		types.Column{Name: "cust_id", Type: types.KindInt},
		types.Column{Name: "amount_cents", Type: types.KindFloat},
	)
	check(cat.DefineTable("orders_cents", cents))
	check(cat.MapFragment(ctx, "orders_cents", &catalog.Fragment{Source: "src_o", RemoteTable: "orders",
		Columns: []catalog.ColumnMapping{{RemoteCol: 0}, {RemoteCol: 1}, {RemoteCol: 2, Scale: 100}}}))
	mediated := types.NewSchema(append(slices.Clone(cents.Columns),
		types.Column{Name: "region", Type: types.KindString},
		types.Column{Name: "site", Type: types.KindString})...)
	check(cat.DefineTable("orders_mediated", mediated))
	site := types.NewString("h_rel")
	check(cat.MapFragment(ctx, "orders_mediated", &catalog.Fragment{Source: "src_o", RemoteTable: "orders",
		Columns: []catalog.ColumnMapping{{RemoteCol: 0}, {RemoteCol: 1}, {RemoteCol: 2, Scale: 100},
			{RemoteCol: 3, ValueMap: map[string]string{"north": "N", "south": "S", "east": "E", "west": "W"}},
			{RemoteCol: -1, Const: &site}}}))
	check(cat.DefineTable("events", orders))
	const parts, per = 8, 50
	for p := 0; p < parts; p++ {
		name := fmt.Sprintf("wan_e%d", p)
		store(name, "events", orders, orderRows(p*per, (p+1)*per), 1)
		where, err := sql.ParseExpr(fmt.Sprintf("oid >= %d AND oid < %d", p*per, (p+1)*per))
		check(err)
		check(cat.MapFragment(ctx, "events", &catalog.Fragment{Source: name, RemoteTable: "events",
			Columns: []catalog.ColumnMapping{{RemoteCol: 0}, {RemoteCol: 1}, {RemoteCol: 2}, {RemoteCol: 3}}, Where: where}))
	}
	check(e.Analyze(ctx))
	return e
}

// sharedShapes are plan's planShapes: point_remote's four statements and
// fk_join_top5's comma form, wan_fanout's three, ship_sum_scaled and
// mediated_sum, texts and parameter kinds as bench/gen.go has them.
var sharedShapes = []struct {
	name   string
	sql    string
	params []types.Value
}{
	{"pk_lookup", "SELECT oid, cust_id, amount, region FROM orders WHERE oid = ?", ints(17)},
	{"fk_agg", "SELECT COUNT(*), SUM(amount) FROM orders WHERE cust_id = ?", ints(3)},
	{"fk_join_top5", "SELECT c.name, o.oid, o.amount FROM customers c JOIN orders o ON c.id = o.cust_id WHERE c.id = ? ORDER BY o.amount DESC, o.oid LIMIT 5", ints(3)},
	{"in_list", "SELECT oid, amount FROM orders WHERE oid IN (?, ?, ?, ?, ?, ?, ?, ?)", ints(1, 2, 3, 5, 8, 13, 21, 34)},
	{"fk_join_top5_comma", "SELECT c.name, o.oid, o.amount FROM customers c, orders o WHERE c.id = o.cust_id AND c.id = ? ORDER BY o.amount DESC, o.oid LIMIT 5", ints(3)},
	{"fan_agg8", "SELECT region, COUNT(*), SUM(amount) FROM events WHERE amount < ? GROUP BY region", []types.Value{types.NewFloat(250)}},
	{"sum_scaled", "SELECT COUNT(*), SUM(amount_cents) FROM orders_cents WHERE oid >= ? AND oid < ?", ints(100, 300)},
	{"mediated_sum", "SELECT region, site, COUNT(*), SUM(amount_cents) FROM orders_mediated WHERE oid >= ? AND oid < ? GROUP BY region, site", ints(100, 300)},
	{"semijoin_sel", "SELECT c.name, e.oid, e.amount FROM customers c JOIN events e ON c.id = e.cust_id WHERE c.id >= ? AND c.id < ?", ints(3, 7)},
	{"range_pruned", "SELECT oid, cust_id, amount FROM events WHERE oid >= ? AND oid < ?", ints(120, 140)},
}

// optimizerVariants are the default options and each switch turned the
// other way, as the plan corpus runs them.
var optimizerVariants = []struct {
	name  string
	tweak func(*plan.Options)
}{
	{"default", func(*plan.Options) {}},
	{"FoldConstants=off", func(o *plan.Options) { o.FoldConstants = false }},
	{"PushFilters=off", func(o *plan.Options) { o.PushFilters = false }},
	{"PruneColumns=off", func(o *plan.Options) { o.PruneColumns = false }},
	{"JoinOrder=syntactic", func(o *plan.Options) { o.JoinOrder = plan.OrderSyntactic }},
	{"JoinOrder=greedy", func(o *plan.Options) { o.JoinOrder = plan.OrderGreedy }},
	{"ParallelFragments=off", func(o *plan.Options) { o.ParallelFragments = false }},
	{"PushAggregates=off", func(o *plan.Options) { o.PushAggregates = false }},
	{"PushTopK=off", func(o *plan.Options) { o.PushTopK = false }},
	{"ForceStrategy=ship-all", func(o *plan.Options) { o.ForceStrategy = plan.StrategyShipAll }},
	{"ForceStrategy=semijoin", func(o *plan.Options) { o.ForceStrategy = plan.StrategySemiJoin }},
}

// sharedState is a deep copy of what the catalog builds once and every
// statement shares: each global table's schemas, and each fragment's
// references to its remote columns.
type sharedState struct {
	schemas map[string][2][]types.Column
	refs    map[string][]*expr.ColRef
}

func copyShared(t *testing.T, cat *catalog.Catalog) sharedState {
	t.Helper()
	st := sharedState{schemas: map[string][2][]types.Column{}, refs: map[string][]*expr.ColRef{}}
	for _, name := range cat.Tables() {
		tab, err := cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		st.schemas[name] = [2][]types.Column{slices.Clone(tab.Schema.Columns), slices.Clone(tab.Own.Columns)}
		for i, f := range tab.Fragments {
			refs := make([]*expr.ColRef, len(f.Columns))
			for g := range refs {
				if ref := f.RemoteRef(g); ref != nil {
					cp := *ref
					refs[g] = &cp
				}
			}
			st.refs[fmt.Sprintf("%s/%d", name, i)] = refs
		}
	}
	return st
}

// TestPlanningWritesNoSharedState plans and runs every planShapes
// statement under each optimizer variant, and then finds the schemas and
// the remote column references the catalog built as they were: a scan
// under its table's own name shares the table's schema, and a translated
// filter shares its fragment's references, so a rewrite or a caller that
// wrote into either would rename a column for every later statement.
// Each result's schema is written into before the statement runs again,
// and the second run must not read the name written.
func TestPlanningWritesNoSharedState(t *testing.T) {
	e := sharedEngine(t)
	before := copyShared(t, e.Catalog())
	for _, v := range optimizerVariants {
		opts := plan.DefaultOptions()
		v.tweak(opts)
		*e.PlanOptions() = *opts
		for _, s := range sharedShapes {
			res, err := e.Query(ctx, s.sql, s.params...)
			if err != nil {
				t.Fatalf("%s under %s: %v", s.name, v.name, err)
			}
			name := res.Schema.Columns[0].Name
			for i := range res.Schema.Columns {
				res.Schema.Columns[i].Name, res.Schema.Columns[i].Table = "written", "written"
			}
			again, err := e.Query(ctx, s.sql, s.params...)
			if err != nil {
				t.Fatalf("%s under %s: %v", s.name, v.name, err)
			}
			if got := again.Schema.Columns[0]; got.Name != name || got.Table == "written" {
				t.Errorf("%s under %s: a written result's schema renamed the next one's first column %s.%s",
					s.name, v.name, got.Table, got.Name)
			}
		}
	}
	*e.PlanOptions() = *plan.DefaultOptions()
	if after := copyShared(t, e.Catalog()); !reflect.DeepEqual(before, after) {
		t.Errorf("the catalog's shared schemas or references changed:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestPointShapesShareTheCatalogConcurrently runs point_remote's four
// statements from two callers at once on one engine whose stores are in
// process, so that the scans of both share their tables' schemas and
// their fragments' remote references, and the statement cache's plans
// (DESIGN.md "The statement cache"): under -race, a write to any of them
// would be a reported race. Each caller draws new values in each round,
// and each answer must be the one a lone run of another engine gives.
func TestPointShapesShareTheCatalogConcurrently(t *testing.T) {
	e, lone := sharedEngine(t), sharedEngine(t)
	shapes := sharedShapes[:4]
	const callers, rounds = 2, 40
	type call struct {
		params []types.Value
		want   string
	}
	rng := rand.New(rand.NewSource(61))
	calls := make([][]call, callers)
	for c := range calls {
		for r := 0; r < rounds; r++ {
			for _, s := range shapes {
				params := make([]types.Value, len(s.params))
				for i := range params {
					// Keys of orders (oid) and of customers (cust_id, id),
					// some of them absent.
					params[i] = types.NewInt(int64(rng.Intn(420)))
					if s.name != "pk_lookup" && s.name != "in_list" {
						params[i] = types.NewInt(int64(rng.Intn(44)))
					}
				}
				res, err := lone.Query(ctx, s.sql, params...)
				if err != nil {
					t.Fatal(err)
				}
				calls[c] = append(calls[c], call{params, fmt.Sprint(res.Schema.Columns, res.Rows)})
			}
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, call := range calls[c] {
				s := shapes[i%len(shapes)]
				res, err := e.Query(context.Background(), s.sql, call.params...)
				if err != nil {
					t.Errorf("%s: %v", s.name, err)
					return
				}
				if got := fmt.Sprint(res.Schema.Columns, res.Rows); got != call.want {
					t.Errorf("%s%v: %s, alone %s", s.name, call.params, got, call.want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
