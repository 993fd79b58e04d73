package core

import (
	"fmt"
	"testing"

	"gis/internal/admission"
	"gis/internal/catalog"
	"gis/internal/relstore"
	"gis/internal/sql"
	"gis/internal/types"
)

// statementEngine lays point_remote's and update_2pc's federations out as
// bench/fixture.go does, smaller: customers on src_c and orders (primary
// key oid, index on cust_id, fifty orders a customer, 4 000 in all, as
// many as a ship_remote range) on src_o, accounts
// range-partitioned on id over bank0…bank3, every store behind wire.Serve
// on loopback, and a non-binding admission controller on the path.
func statementEngine(t *testing.T) *Engine {
	t.Helper()
	const customers, orders, parts, span = 80, 4000, 4, 1_000_000
	e := New()
	e.SetAdmission(admission.New(admission.Config{MaxInFlight: 64}))
	cat := e.Catalog()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	store := func(name, table string, schema *types.Schema, rows []types.Row) *relstore.Store {
		st := relstore.New(name)
		check(st.CreateTable(table, schema, 0))
		mustInsert(t, st, table, rows)
		return st
	}
	orderSchema := types.NewSchema(
		types.Column{Name: "oid", Type: types.KindInt},
		types.Column{Name: "cust_id", Type: types.KindInt},
		types.Column{Name: "amount", Type: types.KindFloat},
		types.Column{Name: "region", Type: types.KindString},
	)
	custSchema := types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "name", Type: types.KindString},
		types.Column{Name: "segment", Type: types.KindString},
	)
	acctSchema := types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "balance", Type: types.KindFloat},
	)
	custRows := make([]types.Row, customers)
	for i := range custRows {
		custRows[i] = types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("cust%d", i)), types.NewString("retail")}
	}
	orderRows := make([]types.Row, orders)
	for i := range orderRows {
		orderRows[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % customers)),
			types.NewFloat(float64(i%500) + 0.5), types.NewString([]string{"north", "south", "east", "west"}[i%4])}
	}
	ords := store("src_o", "orders", orderSchema, orderRows)
	check(ords.CreateIndex("orders", 1))
	for _, st := range []*relstore.Store{store("src_c", "customers", custSchema, custRows), ords} {
		check(cat.AddSource(overWire(t, st)))
	}
	check(cat.DefineTable("customers", custSchema))
	check(cat.MapSimple(ctx, "customers", "src_c", "customers"))
	check(cat.DefineTable("orders", orderSchema))
	check(cat.MapSimple(ctx, "orders", "src_o", "orders"))
	centsSchema := types.NewSchema(
		types.Column{Name: "oid", Type: types.KindInt},
		types.Column{Name: "cust_id", Type: types.KindInt},
		types.Column{Name: "amount_cents", Type: types.KindFloat},
	)
	check(cat.DefineTable("orders_cents", centsSchema))
	check(cat.MapFragment(ctx, "orders_cents", &catalog.Fragment{Source: "src_o", RemoteTable: "orders",
		Columns: []catalog.ColumnMapping{{RemoteCol: 0}, {RemoteCol: 1}, {RemoteCol: 2, Scale: 100}}}))

	check(cat.DefineTable("accounts", acctSchema))
	for p := int64(0); p < parts; p++ {
		rows := make([]types.Row, 0, 10)
		for i := int64(0); i < 5; i++ {
			rows = append(rows, types.Row{types.NewInt(p*span + i), types.NewFloat(100)},
				types.Row{types.NewInt((p+1)*span - 5 + i), types.NewFloat(100)})
		}
		name := fmt.Sprintf("bank%d", p)
		check(cat.AddSource(overWire(t, store(name, "acct", acctSchema, rows))))
		where, err := sql.ParseExpr(fmt.Sprintf("id >= %d AND id < %d", p*span, (p+1)*span))
		check(err)
		check(cat.MapFragment(ctx, "accounts", &catalog.Fragment{Source: name, RemoteTable: "acct",
			Columns: []catalog.ColumnMapping{{RemoteCol: 0}, {RemoteCol: 1}}, Where: where}))
	}
	check(e.Analyze(ctx))
	return e
}

// TestStatementAllocations holds the fixed cost of a statement end to
// end — parse, bind, plan, admit, ship, the component's decode and
// re-bind, the reply — for point_remote's four shapes and update_2pc's
// five templates (texts and parameter kinds as bench/gen.go has them),
// a derived table read through its alias, and ship_remote's ship_join
// and ship_sum_scaled over a 4 000-row range. Each is measured on its
// first call, which misses the statement cache (DESIGN.md "The statement
// cache"), and warmed. A miss's ceilings are what a statement's were
// before the cache — 38 / 68 / 135 / 41, 26 / 17 / 25 / 88 / 136, 73, 91
// and 77 — and it must stay under them. A warmed SELECT that the cache
// keeps is a hit, which rebinds the kept plan and skips parse and plan;
// every other warmed statement takes the miss's path but for the check,
// whose verdict is kept. The warmed ceilings are 10% above what they
// measure: 17 / 20 / 72 / 18 (34 / 61 / 122 / 37 when every call parsed
// and planned), 23 / 15 / 22 / 80 / 57 (123), 66, 82 and 70; a miss
// measures 37 / 64 / 125 / 39 and sum_check's 126. So a
// regression of the fixed cost, a miss that grows, or a kept result no
// longer carved from one block, fails here before it shows as
// allocs_per_query. Materializing each template's subqueries, of which
// it has none, allocates nothing. TestPlanAllocations (plan) holds the
// planning part alone.
func TestStatementAllocations(t *testing.T) {
	e := statementEngine(t)
	const runs = 50
	// Rows inserted into bank0's middle, deleted again in the same order.
	inserted, deleted := int64(1000), int64(1000)
	for _, s := range []struct {
		name      string
		sql       string
		params    func() []types.Value
		write     bool
		miss, hit float64
	}{
		{"pk_lookup", "SELECT oid, cust_id, amount, region FROM orders WHERE oid = ?",
			func() []types.Value { return ints(17) }, false, 38, 19},
		{"fk_agg", "SELECT COUNT(*), SUM(amount) FROM orders WHERE cust_id = ?",
			func() []types.Value { return ints(3) }, false, 68, 22},
		{"fk_join_top5", "SELECT c.name, o.oid, o.amount FROM customers c JOIN orders o ON c.id = o.cust_id WHERE c.id = ? ORDER BY o.amount DESC, o.oid LIMIT 5",
			func() []types.Value { return ints(3) }, false, 135, 80},
		{"in_list", "SELECT oid, amount FROM orders WHERE oid IN (?, ?, ?, ?, ?, ?, ?, ?)",
			func() []types.Value { return ints(1, 2, 3, 5, 8, 13, 21, 34) }, false, 41, 20},
		{"insert_routed", "INSERT INTO accounts (id, balance) VALUES (?, ?)",
			func() []types.Value { inserted++; return []types.Value{types.NewInt(inserted), types.NewFloat(25.5)} }, true, 26, 26},
		{"delete_pk", "DELETE FROM accounts WHERE id = ?",
			func() []types.Value { deleted++; return ints(deleted) }, true, 17, 17},
		{"update_1p", "UPDATE accounts SET balance = balance + ? WHERE id = ?",
			func() []types.Value { return []types.Value{types.NewFloat(2.25), types.NewInt(3)} }, true, 25, 25},
		{"update_2pc", "UPDATE accounts SET balance = CASE WHEN id < ? THEN balance - ? ELSE balance + ? END WHERE id >= ? AND id < ?",
			func() []types.Value {
				return []types.Value{types.NewInt(1_000_000), types.NewFloat(1.5), types.NewFloat(1.5), types.NewInt(999_998), types.NewInt(1_000_002)}
			}, true, 88, 88},
		{"sum_check", "SELECT SUM(balance), COUNT(*) FROM accounts",
			func() []types.Value { return nil }, false, 136, 63},
		{"derived", "SELECT q.oid FROM (SELECT * FROM orders WHERE oid < ?) q",
			func() []types.Value { return ints(5) }, false, 73, 73},
		{"ship_join", "SELECT o.oid, c.name, o.amount FROM orders o JOIN customers c ON o.cust_id = c.id WHERE o.oid >= ? AND o.oid < ?",
			func() []types.Value { return ints(0, 4000) }, false, 91, 91},
		{"sum_scaled", "SELECT COUNT(*), SUM(amount_cents) FROM orders_cents WHERE oid >= ? AND oid < ?",
			func() []types.Value { return ints(0, 4000) }, false, 77, 77},
	} {
		// The parameters of every run are drawn before it is measured, as
		// the benchmark's generator draws them outside the engine.
		params := make([][]types.Value, 2*runs+2)
		for i := range params {
			params[i] = s.params()
		}
		// Materializing a statement that holds no subquery is a walk over
		// its clauses that allocates nothing.
		stmt, err := sql.Parse(s.sql, params[0]...)
		if err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(runs, func() { _ = e.materializeSubqueries(ctx, stmt) }); got != 0 {
			t.Errorf("%s: materializing its subqueries allocates %.0f objects, want 0", s.name, got)
		}
		i := 0
		run := func() {
			p := params[i]
			i++
			if s.write {
				n, err := e.Exec(ctx, s.sql, p...)
				if err != nil || n < 1 {
					t.Fatalf("%s: %d rows, %v", s.name, n, err)
				}
				return
			}
			res, err := e.Query(ctx, s.sql, p...)
			if err != nil || len(res.Rows) == 0 {
				t.Fatalf("%s: %v, %v", s.name, res, err)
			}
		}
		miss := testing.AllocsPerRun(runs, func() {
			e.stmts.clear()
			run()
		})
		hit := testing.AllocsPerRun(runs, run)
		t.Logf("%-13s miss %4.0f allocations (ceiling %.0f), warmed %4.0f (ceiling %.0f)", s.name, miss, s.miss, hit, s.hit)
		if miss > s.miss {
			t.Errorf("%s: a first call allocates %.0f objects, ceiling %.0f", s.name, miss, s.miss)
		}
		if hit > s.hit {
			t.Errorf("%s: a warmed call allocates %.0f objects, ceiling %.0f", s.name, hit, s.hit)
		}
	}
}

// clear drops every entry, so that the next call of any text misses.
func (c *stmtCache) clear() {
	c.mu.Lock()
	clear(c.m)
	c.mu.Unlock()
}

func ints(vs ...int64) []types.Value {
	out := make([]types.Value, len(vs))
	for i, v := range vs {
		out[i] = types.NewInt(v)
	}
	return out
}
