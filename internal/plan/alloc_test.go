package plan

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"gis/internal/catalog"
	"gis/internal/relstore"
	"gis/internal/sql"
	"gis/internal/types"
)

// planShapes are the four point_remote statements, wan_fanout's three
// over events' eight fragments (fan_agg8's GROUP BY, semijoin_sel's
// shipped keys and range_pruned's one fragment left of eight),
// ship_remote's ship_sum_scaled and hetero_local's mediated_sum, texts
// and parameter kinds as bench/gen.go has them, so this rung and the
// benchmark's probe can be read against each other — and fk_join_top5
// written the SQL-89 way, FROM a, b WHERE, held to the ON form's
// ceiling. sum_scaled and mediated_sum push their aggregate through the
// column mapping (DESIGN.md "An aggregate pushes through the mapping");
// wan_fanout's fragments map alike and are planned as one (DESIGN.md
// "Fragments that map alike"). Each ceiling is 10% above what the shape
// measures.
var planShapes = []struct {
	name    string
	sql     string
	params  []types.Value
	ceiling float64 // allocations of parse + build + optimize: 10% above 23 / 47 / 59 / 59 / 25 / 85 / 54 / 68 / 63 / 30
}{
	{"pk_lookup", "SELECT oid, cust_id, amount, region FROM orders WHERE oid = ?", ints(17), 26},
	{"fk_agg", "SELECT COUNT(*), SUM(amount) FROM orders WHERE cust_id = ?", ints(3), 52},
	{"fk_join_top5", "SELECT c.name, o.oid, o.amount FROM customers c JOIN orders o ON c.id = o.cust_id WHERE c.id = ? ORDER BY o.amount DESC, o.oid LIMIT 5", ints(3), 65},
	{"fk_join_top5_comma", "SELECT c.name, o.oid, o.amount FROM customers c, orders o WHERE c.id = o.cust_id AND c.id = ? ORDER BY o.amount DESC, o.oid LIMIT 5", ints(3), 65},
	{"in_list", "SELECT oid, amount FROM orders WHERE oid IN (?, ?, ?, ?, ?, ?, ?, ?)", ints(1, 2, 3, 5, 8, 13, 21, 34), 28},
	{"fan_agg8", "SELECT region, COUNT(*), SUM(amount) FROM events WHERE amount < ? GROUP BY region", []types.Value{types.NewFloat(250)}, 94},
	{"sum_scaled", "SELECT COUNT(*), SUM(amount_cents) FROM orders_cents WHERE oid >= ? AND oid < ?", ints(100, 300), 60},
	{"mediated_sum", "SELECT region, site, COUNT(*), SUM(amount_cents) FROM orders_mediated WHERE oid >= ? AND oid < ? GROUP BY region, site", ints(100, 300), 75},
	{"semijoin_sel", "SELECT c.name, e.oid, e.amount FROM customers c JOIN events e ON c.id = e.cust_id WHERE c.id >= ? AND c.id < ?", ints(3, 7), 70},
	{"range_pruned", "SELECT oid, cust_id, amount FROM events WHERE oid >= ? AND oid < ?", ints(120, 140), 33},
}

func ints(vs ...int64) []types.Value {
	out := make([]types.Value, len(vs))
	for i, v := range vs {
		out[i] = types.NewInt(v)
	}
	return out
}

// newBenchCatalog lays the federation out as bench/fixture.go does:
// customers on one relstore and orders (primary key oid, index on
// cust_id) on another, as buildTwoTable has them, and events
// range-partitioned on oid over eight more, as buildFanout has it. The
// stores are in-process: a plan does not depend on the wire.
func newBenchCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	return newFanoutCatalog(t, 8)
}

// newFanoutCatalog is newBenchCatalog with events range-partitioned over
// parts fragments, each on its own relstore and mapped alike.
func newFanoutCatalog(t testing.TB, parts int) *catalog.Catalog {
	t.Helper()
	ctx := context.Background()
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
	cat := catalog.New()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	store := func(name, table string, schema *types.Schema, rows []types.Row, index int) {
		st := relstore.New(name)
		check(st.CreateTable(table, schema, 0))
		_, err := st.Insert(ctx, table, rows)
		check(err)
		if index >= 0 {
			check(st.CreateIndex(table, index))
		}
		check(cat.AddSource(st))
	}
	orderRows := func(lo, hi int) []types.Row {
		rows := make([]types.Row, 0, hi-lo)
		for i := lo; i < hi; i++ {
			rows = append(rows, types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 40)),
				types.NewFloat(float64(i%500) + 0.5), types.NewString([]string{"north", "south", "east", "west"}[i%4])})
		}
		return rows
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

	// orders_cents and orders_mediated view src_o's orders as
	// buildTwoTable's orders_cents and buildHetero's orders_mediated do.
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
	const per = 50
	for p := 0; p < parts; p++ {
		name := fmt.Sprintf("wan_e%d", p)
		lo, hi := p*per, (p+1)*per
		store(name, "events", orders, orderRows(lo, hi), 1)
		where, err := sql.ParseExpr(fmt.Sprintf("oid >= %d AND oid < %d", lo, hi))
		check(err)
		check(cat.MapFragment(ctx, "events", &catalog.Fragment{Source: name, RemoteTable: "events",
			Columns: []catalog.ColumnMapping{{RemoteCol: 0}, {RemoteCol: 1}, {RemoteCol: 2}, {RemoteCol: 3}}, Where: where}))
	}
	// What core.Engine.Analyze does, without the engine.
	for _, name := range cat.Tables() {
		tab, err := cat.Table(name)
		check(err)
		for _, frag := range tab.Fragments {
			src, err := cat.Source(frag.Source)
			check(err)
			ts, err := src.(*relstore.Store).Stats(frag.RemoteTable)
			check(err)
			frag.SetStats(ts)
		}
	}
	return cat
}

// planOnce is what the mediator does to a statement before it runs it.
func planOnce(cat *catalog.Catalog, text string, params []types.Value) (Node, error) {
	sel, err := sql.ParseSelect(text, params...)
	if err != nil {
		return nil, err
	}
	logical, err := NewBuilder(cat).BuildSelect(sel)
	if err != nil {
		return nil, err
	}
	return Optimize(context.Background(), logical, cat, nil)
}

// TestPlanAllocations holds planning to building the plan: parse, build
// and optimize of each benchmark shape stay under a ceiling. A planner
// change that builds temporaries per node again shows here before it
// shows as point_remote's allocs_per_query (whose bound is five objects).
func TestPlanAllocations(t *testing.T) {
	cat := newBenchCatalog(t)
	for _, s := range planShapes {
		n, err := planOnce(cat, s.sql, s.params)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if u := findUnion(n); (s.name == "fan_agg8" || s.name == "semijoin_sel") && (u == nil || len(FragScans(u)) != 8) {
			t.Fatalf("%s: want a union of 8 fragment scans:\n%s", s.name, Explain(n))
		}
		if s.name == "range_pruned" && (findUnion(n) != nil || findFragScan(n) == nil) {
			t.Fatalf("%s: want one fragment scan left:\n%s", s.name, Explain(n))
		}
		got := testing.AllocsPerRun(50, func() {
			if _, err := planOnce(cat, s.sql, s.params); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%-18s %4.0f allocations (ceiling %.0f)", s.name, got, s.ceiling)
		if got > s.ceiling {
			t.Errorf("%s: planning allocates %.0f objects, ceiling %.0f", s.name, got, s.ceiling)
		}
	}
}

// TestEstimateRowsAllocatesNothing holds the estimator to reading the
// plan: exec sizes every result it keeps from EstimateRows, so it runs
// once per Collect, sort input and join side, and must allocate nothing
// there — over every benchmark shape, and over a two-scan equi join with
// a range filter on one of its scans.
func TestEstimateRowsAllocatesNothing(t *testing.T) {
	cat := newBenchCatalog(t)
	check := func(name, text string, params []types.Value) Node {
		n, err := planOnce(cat, text, params)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := testing.AllocsPerRun(50, func() { EstimateRows(n) }); got != 0 {
			t.Errorf("%s: EstimateRows allocates %.0f objects over\n%s", name, got, Explain(n))
		}
		return n
	}
	for _, s := range planShapes {
		check(s.name, s.sql, s.params)
	}
	n := check("range_join", "SELECT c.name, o.oid FROM customers c JOIN orders o ON c.id = o.cust_id WHERE c.id >= 2 AND c.id < 10", nil)
	if j := findJoin(n); j == nil || findFragScan(j.L) == nil || findFragScan(j.R) == nil {
		t.Fatalf("range_join: want a join of two fragment scans:\n%s", Explain(n))
	}
}

// BenchmarkPlan is the planner's rung: build + optimize + decompose of
// each benchmark shape from its parsed statement (sql's BenchmarkParse
// has the parse). Read B/op and allocs/op.
func BenchmarkPlan(b *testing.B) {
	cat := newBenchCatalog(b)
	for _, s := range planShapes {
		b.Run(s.name, func(b *testing.B) {
			// Bind binds the parser's tree in place and binding it again
			// changes nothing, so one parse serves every run.
			sel, err := sql.ParseSelect(s.sql, s.params...)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				logical, err := NewBuilder(cat).BuildSelect(sel)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Optimize(context.Background(), logical, cat, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fanoutShapes are wan_fanout's three shapes over events, with filters
// that prune no fragment: what planning them allocates grows with the
// fragments they read unless alike fragments share one translation.
var fanoutShapes = []struct {
	name   string
	sql    string
	params []types.Value
}{
	{"group_by", "SELECT region, COUNT(*), SUM(amount) FROM events WHERE amount < ? GROUP BY region", []types.Value{types.NewFloat(250)}},
	{"filtered_scan", "SELECT oid, cust_id, amount FROM events WHERE amount < ?", []types.Value{types.NewFloat(250)}},
	{"semijoin", "SELECT c.name, e.oid, e.amount FROM customers c JOIN events e ON c.id = e.cust_id WHERE c.id >= ? AND c.id < ?", ints(3, 7)},
}

// TestPlanAllocsPerAlikeFragment plans each of fanoutShapes over 1, 2, 8
// and 16 fragments that map alike (DESIGN.md "Fragments that map
// alike"): each fragment past the second adds at most one object. (The
// second adds the union, and a GROUP BY's final aggregate.)
func TestPlanAllocsPerAlikeFragment(t *testing.T) {
	counts := []int{1, 2, 8, 16}
	cats := make([]*catalog.Catalog, len(counts))
	for i, parts := range counts {
		cats[i] = newFanoutCatalog(t, parts)
	}
	for _, s := range fanoutShapes {
		got := make([]float64, len(counts))
		for i, cat := range cats {
			n, err := planOnce(cat, s.sql, s.params)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			if u := findUnion(n); counts[i] > 1 && (u == nil || len(FragScans(u)) != counts[i]) {
				t.Fatalf("%s: want a union of %d fragment scans:\n%s", s.name, counts[i], Explain(n))
			}
			got[i] = testing.AllocsPerRun(50, func() {
				if _, err := planOnce(cat, s.sql, s.params); err != nil {
					t.Fatal(err)
				}
			})
		}
		t.Logf("%-14s %v allocations over %v fragments", s.name, got, counts)
		for i := 2; i < len(counts); i++ {
			if grown := got[i] - got[1]; grown > float64(counts[i]-counts[1]) {
				t.Errorf("%s: %d fragments allocate %.0f objects more than 2, want at most one a fragment", s.name, counts[i], grown)
			}
		}
	}
}

// TestKeyQueryAllocsPerAlikeFragment holds what a semijoin asks its
// right side to one translation of the keys: over fragments that map
// alike and admit the same keys, KeyQueries allocates as much for 16 as
// for 2.
func TestKeyQueryAllocsPerAlikeFragment(t *testing.T) {
	keys := ints(3, 4, 5, 6)
	var got []float64
	for _, parts := range []int{2, 16} {
		cat := newFanoutCatalog(t, parts)
		n, err := planOnce(cat, fanoutShapes[2].sql, fanoutShapes[2].params)
		if err != nil {
			t.Fatal(err)
		}
		j := findJoin(n)
		if j == nil || j.Strategy != StrategySemiJoin || len(FragScans(j.R)) != parts {
			t.Fatalf("%d fragments: want keys shipped to each:\n%s", parts, Explain(n))
		}
		ins, qs, err := KeyQueries(j.R, j.EquiR[0], keys)
		if err != nil || len(ins) != parts || len(qs) != parts {
			t.Fatalf("%d fragments: %d inputs, %d sub-queries (%v)", parts, len(ins), len(qs), err)
		}
		for i, q := range qs {
			if q.String() != qs[0].String() {
				t.Errorf("%d fragments: sub-query %d is %s, the first %s", parts, i, q, qs[0])
			}
		}
		got = append(got, testing.AllocsPerRun(50, func() {
			if _, _, err := KeyQueries(j.R, j.EquiR[0], keys); err != nil {
				t.Fatal(err)
			}
		}))
	}
	t.Logf("KeyQueries allocates %v over 2 and 16 fragments", got)
	if got[1] != got[0] {
		t.Errorf("KeyQueries allocates %.0f objects over 16 alike fragments, %.0f over 2", got[1], got[0])
	}
}
