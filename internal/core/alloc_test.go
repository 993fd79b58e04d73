package core

import (
	"fmt"
	"testing"

	"gis/internal/admission"
	"gis/internal/catalog"
	"gis/internal/obs"
	"gis/internal/relstore"
	"gis/internal/sql"
	"gis/internal/types"
)

// bankSpan is how many account ids each bank of statementEngine's
// accounts holds: bank p holds p·bankSpan up to (p+1)·bankSpan.
const bankSpan = 1_000_000

// rangePruned is wan_fanout's range_pruned over the accounts banks.
const rangePruned = "SELECT id, balance FROM accounts WHERE id >= ? AND id < ?"

// statementEngine lays point_remote's and update_2pc's federations out as
// bench/fixture.go does, smaller: customers on src_c and orders (primary
// key oid, index on cust_id, fifty orders a customer, 4 000 in all, as
// many as a ship_remote range) on src_o, accounts
// range-partitioned on id over bank0…bank3, every store behind wire.Serve
// on loopback, and a non-binding admission controller on the path.
func statementEngine(t *testing.T) *Engine {
	t.Helper()
	const customers, orders, parts, span = 80, 4000, 4, bankSpan
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
// a derived table read through its alias, ship_remote's ship_join and
// ship_sum_scaled over a 4 000-row range, and range_pruned's shape over
// the four banks of accounts. Each is measured on its first call, which
// misses the statement cache (DESIGN.md "The statement cache"), and
// warmed. A miss's ceilings are what a statement's were before the
// cache — 38 / 68 / 135 / 41, 26 / 17 / 25 / 88 / 136, 73, 91 and 77 —
// and 10% above what range_pruned's measures (40), and it must stay
// under them. A warmed statement that the cache keeps is a hit, which
// checks out an idle instance that reads the fragments its values leave,
// writes the values into it, re-deriving a plan's join strategies, and
// skips parse and plan, or a write's parse, bind and split; every other
// warmed statement takes the miss's path but for the check, whose
// verdict is kept. The warmed ceilings are 10% above what they measure:
// 13 / 16 / 64 / 13 (34 / 61 / 122 / 37 when every call parsed and
// planned, 17 / 20 / 72 / 18 when a hit copied the path to each
// parameter), 15 / 9 / 10 / 52 / 56 (23 / 15 / 22 / 80 when every write
// was parsed, bound and split; 123 for sum_check when it was planned), 12,
// 26 and 18 (66, 82 and 70 when a range was planned on every call), and
// range_pruned's 12. range_moved is range_pruned with a plan kept for
// bank0 and its values in bank1: its first warmed call is planned
// afresh and kept beside bank0's plan, and every later one is a hit
// under range_pruned's ceiling (37 a call when every call away from the
// kept plan's fragments was planned afresh).
// So a regression of the fixed cost, a miss that grows, a hit that
// allocates, or a kept result no longer carved from one block, fails
// here before it shows as allocs_per_query. Materializing each template's subqueries, of which
// it has none, allocates nothing. TestPlanAllocations (plan) holds the
// planning part alone.
func TestStatementAllocations(t *testing.T) {
	e := statementEngine(t)
	const runs = 50
	// Rows inserted into bank0's middle, deleted again in the same order.
	inserted, deleted := int64(1000), int64(1000)
	// The values a statement's plan is kept for before its warmed calls
	// are measured, when not its own: range_moved's are a bank away.
	warm := map[string][]types.Value{"range_moved": ints(0, 10)}
	for _, s := range []struct {
		name      string
		sql       string
		params    func() []types.Value
		write     bool
		miss, hit float64
	}{
		{"pk_lookup", "SELECT oid, cust_id, amount, region FROM orders WHERE oid = ?",
			func() []types.Value { return ints(17) }, false, 38, 15},
		{"fk_agg", "SELECT COUNT(*), SUM(amount) FROM orders WHERE cust_id = ?",
			func() []types.Value { return ints(3) }, false, 68, 18},
		{"fk_join_top5", "SELECT c.name, o.oid, o.amount FROM customers c JOIN orders o ON c.id = o.cust_id WHERE c.id = ? ORDER BY o.amount DESC, o.oid LIMIT 5",
			func() []types.Value { return ints(3) }, false, 135, 71},
		{"in_list", "SELECT oid, amount FROM orders WHERE oid IN (?, ?, ?, ?, ?, ?, ?, ?)",
			func() []types.Value { return ints(1, 2, 3, 5, 8, 13, 21, 34) }, false, 41, 15},
		{"insert_routed", "INSERT INTO accounts (id, balance) VALUES (?, ?)",
			func() []types.Value { inserted++; return []types.Value{types.NewInt(inserted), types.NewFloat(25.5)} }, true, 26, 17},
		{"delete_pk", "DELETE FROM accounts WHERE id = ?",
			func() []types.Value { deleted++; return ints(deleted) }, true, 17, 10},
		{"update_1p", "UPDATE accounts SET balance = balance + ? WHERE id = ?",
			func() []types.Value { return []types.Value{types.NewFloat(2.25), types.NewInt(3)} }, true, 25, 11},
		{"update_2pc", "UPDATE accounts SET balance = CASE WHEN id < ? THEN balance - ? ELSE balance + ? END WHERE id >= ? AND id < ?",
			func() []types.Value {
				return []types.Value{types.NewInt(1_000_000), types.NewFloat(1.5), types.NewFloat(1.5), types.NewInt(999_998), types.NewInt(1_000_002)}
			}, true, 88, 58},
		{"sum_check", "SELECT SUM(balance), COUNT(*) FROM accounts",
			func() []types.Value { return nil }, false, 136, 62},
		{"derived", "SELECT q.oid FROM (SELECT * FROM orders WHERE oid < ?) q",
			func() []types.Value { return ints(5) }, false, 73, 14},
		{"ship_join", "SELECT o.oid, c.name, o.amount FROM orders o JOIN customers c ON o.cust_id = c.id WHERE o.oid >= ? AND o.oid < ?",
			func() []types.Value { return ints(0, 4000) }, false, 91, 29},
		{"sum_scaled", "SELECT COUNT(*), SUM(amount_cents) FROM orders_cents WHERE oid >= ? AND oid < ?",
			func() []types.Value { return ints(0, 4000) }, false, 77, 20},
		{"range_pruned", rangePruned, func() []types.Value { return ints(0, 10) }, false, 44, 14},
		{"range_moved", rangePruned, func() []types.Value { return ints(bankSpan, bankSpan+10) }, false, 44, 14},
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
		kept := warm[s.name]
		if kept != nil {
			e.stmts.clear()
			if _, err := e.Query(ctx, s.sql, kept...); err != nil {
				t.Fatal(err)
			}
		}
		hit := testing.AllocsPerRun(runs, run)
		if n := e.idlePlans(s.sql); kept != nil && n != 2 {
			t.Errorf("%s: %d plans kept, want the one made for %v and one for the values a bank away", s.name, n, kept)
		}
		t.Logf("%-13s miss %4.0f allocations (ceiling %.0f), warmed %4.0f (ceiling %.0f)", s.name, miss, s.miss, hit, s.hit)
		if miss > s.miss {
			t.Errorf("%s: a first call allocates %.0f objects, ceiling %.0f", s.name, miss, s.miss)
		}
		if hit > s.hit {
			t.Errorf("%s: a warmed call allocates %.0f objects, ceiling %.0f", s.name, hit, s.hit)
		}
	}
}

// TestKeptWriteParsesNothing runs update_2pc's four write templates on
// statementEngine, each warmed: a call is a hit of the statement cache,
// traced under one parse span, named cached, and no write span but the
// one it runs, and a first call, which misses, allocates at least what
// sql.Parse of the text does more than a warmed call, which parses
// nothing.
func TestKeptWriteParsesNothing(t *testing.T) {
	e := statementEngine(t)
	// Rows inserted into bank0's middle, deleted again in the same order.
	inserted, deleted := int64(2000), int64(2000)
	update2pc := []types.Value{types.NewInt(bankSpan), types.NewFloat(1.5), types.NewFloat(1.5), types.NewInt(bankSpan - 2), types.NewInt(bankSpan + 2)}
	for _, s := range []struct {
		name   string
		sql    string
		params func() []types.Value
	}{
		{"insert_routed", "INSERT INTO accounts (id, balance) VALUES (?, ?)",
			func() []types.Value { inserted++; return []types.Value{types.NewInt(inserted), types.NewFloat(25.5)} }},
		{"delete_pk", "DELETE FROM accounts WHERE id = ?", func() []types.Value { deleted++; return ints(deleted) }},
		{"update_1p", "UPDATE accounts SET balance = balance + ? WHERE id = ?",
			func() []types.Value { return []types.Value{types.NewFloat(2.25), types.NewInt(3)} }},
		{"update_2pc", "UPDATE accounts SET balance = CASE WHEN id < ? THEN balance - ? ELSE balance + ? END WHERE id >= ? AND id < ?",
			func() []types.Value { return update2pc }},
	} {
		const runs = 20
		params := make([][]types.Value, 2*runs+3)
		for i := range params {
			params[i] = s.params()
		}
		i := 0
		run := func() {
			n, err := e.Exec(ctx, s.sql, params[i]...)
			if err != nil || n < 1 {
				t.Fatalf("%s: %d rows, %v", s.name, n, err)
			}
			i++
		}
		parsed := testing.AllocsPerRun(runs, func() {
			if _, err := sql.Parse(s.sql, params[0]...); err != nil {
				t.Fatal(err)
			}
		})
		miss := testing.AllocsPerRun(runs, func() {
			e.stmts.clear()
			run()
		})
		hit := testing.AllocsPerRun(runs, run)
		e.SetTracing(true)
		run()
		e.SetTracing(false)
		tr := e.TraceLast()
		if parse := tr.Data().FindAll(obs.SpanParse); len(parse) != 1 || parse[0].Name != "cached" || len(tr.Data().FindAll(obs.SpanWrite)) != 1 {
			t.Errorf("%s warmed: %d parse spans, %d write spans; want one parse span named cached", s.name, len(parse), len(tr.Data().FindAll(obs.SpanWrite)))
		}
		t.Logf("%-13s miss %4.0f allocations, warmed %4.0f, sql.Parse %4.0f", s.name, miss, hit, parsed)
		if miss-hit < parsed {
			t.Errorf("%s: a warmed call allocates %.0f objects, a miss %.0f: it saves less than parsing, %.0f", s.name, hit, miss, parsed)
		}
	}
}

// TestRunWritesAsExecDoes holds Run to Exec for a write: a warmed INSERT
// through Run is a hit, as through Exec, and allocates what it does
// through Exec and the one object of the Result that carries its count.
func TestRunWritesAsExecDoes(t *testing.T) {
	e := statementEngine(t)
	const text = "INSERT INTO accounts (id, balance) VALUES (?, ?)"
	// The parameters of every call are drawn before it is measured.
	drawn := make([][]types.Value, 110)
	for i := range drawn {
		drawn[i] = []types.Value{types.NewInt(3000 + int64(i)), types.NewFloat(25.5)}
	}
	params := func() []types.Value {
		p := drawn[0]
		drawn = drawn[1:]
		return p
	}
	exec := testing.AllocsPerRun(50, func() {
		if n, err := e.Exec(ctx, text, params()...); err != nil || n != 1 {
			t.Fatalf("Exec: %d, %v", n, err)
		}
	})
	run := testing.AllocsPerRun(50, func() {
		if res, err := e.Run(ctx, text, params()...); err != nil || res.Rows[0][0].Int() != 1 {
			t.Fatalf("Run: %v, %v", res, err)
		}
	})
	result := testing.AllocsPerRun(50, func() { _ = affected(1) })
	t.Logf("warmed INSERT: Exec %.0f allocations, Run %.0f, its Result %.0f", exec, run, result)
	if run != exec+result || result != 1 {
		t.Errorf("a warmed INSERT allocates %.0f objects through Run, %.0f through Exec and %.0f for the Result", run, exec, result)
	}
	e.SetTracing(true)
	if _, err := e.Run(ctx, text, params()...); err != nil {
		t.Fatal(err)
	}
	if parse := e.TraceLast().Data().FindAll(obs.SpanParse); len(parse) != 1 || parse[0].Name != "cached" {
		t.Errorf("Run's warmed INSERT is not a hit: %d parse spans", len(parse))
	}
	// An EXPLAIN through Run is given no instance of the cache, so keeps
	// no template.
	if _, err := e.Run(ctx, "EXPLAIN "+rangePruned, ints(0, 10)...); err != nil {
		t.Fatal(err)
	}
	if tm, _ := e.cachedPlan("EXPLAIN " + rangePruned); tm != nil {
		t.Errorf("an EXPLAIN through Run was kept")
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
