package plan

import (
	"context"
	"fmt"
	"testing"

	"gis/internal/catalog"
	"gis/internal/relstore"
	"gis/internal/sql"
	"gis/internal/types"
)

// planShapes are the four point_remote statements and wan_fanout's
// eight-fragment GROUP BY, texts and parameter kinds as bench/gen.go has
// them, so this rung and the benchmark's probe can be read against each
// other — and fk_join_top5 written the SQL-89 way, FROM a, b WHERE, held
// to the ON form's ceiling.
var planShapes = []struct {
	name    string
	sql     string
	params  []types.Value
	ceiling float64 // allocations of parse + build + optimize: 10% above 37 / 63 / 86 / 86 / 48 / 258
}{
	{"pk_lookup", "SELECT oid, cust_id, amount, region FROM orders WHERE oid = ?", ints(17), 41},
	{"fk_agg", "SELECT COUNT(*), SUM(amount) FROM orders WHERE cust_id = ?", ints(3), 70},
	{"fk_join_top5", "SELECT c.name, o.oid, o.amount FROM customers c JOIN orders o ON c.id = o.cust_id WHERE c.id = ? ORDER BY o.amount DESC, o.oid LIMIT 5", ints(3), 95},
	{"fk_join_top5_comma", "SELECT c.name, o.oid, o.amount FROM customers c, orders o WHERE c.id = o.cust_id AND c.id = ? ORDER BY o.amount DESC, o.oid LIMIT 5", ints(3), 95},
	{"in_list", "SELECT oid, amount FROM orders WHERE oid IN (?, ?, ?, ?, ?, ?, ?, ?)", ints(1, 2, 3, 5, 8, 13, 21, 34), 53},
	{"fan_agg8", "SELECT region, COUNT(*), SUM(amount) FROM events WHERE amount < ? GROUP BY region", []types.Value{types.NewFloat(250)}, 284},
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

	check(cat.DefineTable("events", orders))
	const parts, per = 8, 50
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
		if u := findUnion(n); s.name == "fan_agg8" && (u == nil || len(FragScans(u)) != 8) {
			t.Fatalf("%s: want a union of 8 fragment scans:\n%s", s.name, Explain(n))
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
