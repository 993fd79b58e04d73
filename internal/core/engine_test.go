package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"gis/internal/admission"
	"gis/internal/catalog"
	"gis/internal/expr"
	"gis/internal/filestore"
	"gis/internal/kvstore"
	"gis/internal/obs"
	"gis/internal/plan"
	"gis/internal/relstore"
	"gis/internal/source"
	"gis/internal/types"
)

var ctx = context.Background()

// newTestEngine builds a small federation:
//
//	customers  — relstore "ny" (4 rows)
//	orders     — horizontally partitioned: ids < 100 on "ny",
//	             ids >= 100 on "eu" (relstores, 6 rows total)
//	products   — kvstore "kv" keyed by sku (4 rows; keyed access only)
//	suppliers  — filestore "files" CSV (3 rows; scan-only)
func newTestEngine(t testing.TB) *Engine {
	t.Helper()
	return newTestEngineVia(t, func(s source.Source) source.Source { return s })
}

// newTestEngineVia is newTestEngine with every store reached through
// wrap: the store itself, or one of wrapperClasses around it.
func newTestEngineVia(t testing.TB, wrap func(source.Source) source.Source) *Engine {
	t.Helper()
	e := New()

	ny := relstore.New("ny")
	if err := ny.CreateTable("customers", types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "name", Type: types.KindString},
		types.Column{Name: "region", Type: types.KindString},
		types.Column{Name: "balance", Type: types.KindFloat},
	), 0); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, ny, "customers", []types.Row{
		{types.NewInt(1), types.NewString("alice"), types.NewString("east"), types.NewFloat(100)},
		{types.NewInt(2), types.NewString("bob"), types.NewString("west"), types.NewFloat(200)},
		{types.NewInt(3), types.NewString("carol"), types.NewString("east"), types.NewFloat(300)},
		{types.NewInt(4), types.NewString("dave"), types.NewString("west"), types.NewFloat(50)},
	})

	orderSchema := types.NewSchema(
		types.Column{Name: "oid", Type: types.KindInt},
		types.Column{Name: "cust_id", Type: types.KindInt},
		types.Column{Name: "sku", Type: types.KindInt},
		types.Column{Name: "qty", Type: types.KindInt},
	)
	if err := ny.CreateTable("orders", orderSchema, 0); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, ny, "orders", []types.Row{
		{types.NewInt(10), types.NewInt(1), types.NewInt(501), types.NewInt(2)},
		{types.NewInt(11), types.NewInt(2), types.NewInt(502), types.NewInt(1)},
		{types.NewInt(12), types.NewInt(1), types.NewInt(503), types.NewInt(5)},
	})

	eu := relstore.New("eu")
	if err := eu.CreateTable("orders", orderSchema, 0); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, eu, "orders", []types.Row{
		{types.NewInt(100), types.NewInt(3), types.NewInt(501), types.NewInt(7)},
		{types.NewInt(101), types.NewInt(4), types.NewInt(502), types.NewInt(3)},
		{types.NewInt(102), types.NewInt(3), types.NewInt(504), types.NewInt(1)},
	})

	kv := kvstore.New("kv")
	if err := kv.CreateBucket("products", types.NewSchema(
		types.Column{Name: "sku", Type: types.KindInt},
		types.Column{Name: "pname", Type: types.KindString},
		types.Column{Name: "price", Type: types.KindFloat},
	), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := kv.Insert(ctx, "products", []types.Row{
		{types.NewInt(501), types.NewString("widget"), types.NewFloat(9.5)},
		{types.NewInt(502), types.NewString("gadget"), types.NewFloat(20)},
		{types.NewInt(503), types.NewString("sprocket"), types.NewFloat(1.25)},
		{types.NewInt(504), types.NewString("gizmo"), types.NewFloat(99)},
	}); err != nil {
		t.Fatal(err)
	}

	files := filestore.New("files")
	if err := files.RegisterData("suppliers",
		"1,acme,east\n2,globex,west\n3,initech,east\n",
		types.NewSchema(
			types.Column{Name: "sid", Type: types.KindInt},
			types.Column{Name: "sname", Type: types.KindString},
			types.Column{Name: "sregion", Type: types.KindString},
		)); err != nil {
		t.Fatal(err)
	}

	cat := e.Catalog()
	for _, src := range []source.Source{ny, eu, kv, files} {
		if err := cat.AddSource(wrap(src)); err != nil {
			t.Fatal(err)
		}
	}

	if err := cat.DefineTable("customers", types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "name", Type: types.KindString},
		types.Column{Name: "region", Type: types.KindString},
		types.Column{Name: "balance", Type: types.KindFloat},
	)); err != nil {
		t.Fatal(err)
	}
	if err := cat.MapSimple(context.Background(), "customers", "ny", "customers"); err != nil {
		t.Fatal(err)
	}

	if err := cat.DefineTable("orders", types.NewSchema(
		types.Column{Name: "oid", Type: types.KindInt},
		types.Column{Name: "cust_id", Type: types.KindInt},
		types.Column{Name: "sku", Type: types.KindInt},
		types.Column{Name: "qty", Type: types.KindInt},
	)); err != nil {
		t.Fatal(err)
	}
	idCols := []catalog.ColumnMapping{{RemoteCol: 0}, {RemoteCol: 1}, {RemoteCol: 2}, {RemoteCol: 3}}
	if err := cat.MapFragment(context.Background(), "orders", &catalog.Fragment{
		Source: "ny", RemoteTable: "orders", Columns: idCols,
		Where: expr.NewBinary(expr.OpLt, expr.NewColRef("", "oid"), expr.NewConst(types.NewInt(100))),
	}); err != nil {
		t.Fatal(err)
	}
	if err := cat.MapFragment(context.Background(), "orders", &catalog.Fragment{
		Source: "eu", RemoteTable: "orders", Columns: idCols,
		Where: expr.NewBinary(expr.OpGe, expr.NewColRef("", "oid"), expr.NewConst(types.NewInt(100))),
	}); err != nil {
		t.Fatal(err)
	}

	if err := cat.DefineTable("products", types.NewSchema(
		types.Column{Name: "sku", Type: types.KindInt},
		types.Column{Name: "pname", Type: types.KindString},
		types.Column{Name: "price", Type: types.KindFloat},
	)); err != nil {
		t.Fatal(err)
	}
	if err := cat.MapSimple(context.Background(), "products", "kv", "products"); err != nil {
		t.Fatal(err)
	}

	if err := cat.DefineTable("suppliers", types.NewSchema(
		types.Column{Name: "sid", Type: types.KindInt},
		types.Column{Name: "sname", Type: types.KindString},
		types.Column{Name: "sregion", Type: types.KindString},
	)); err != nil {
		t.Fatal(err)
	}
	if err := cat.MapSimple(context.Background(), "suppliers", "files", "suppliers"); err != nil {
		t.Fatal(err)
	}

	if err := e.Analyze(ctx); err != nil {
		t.Fatal(err)
	}
	return e
}

func mustInsert(t testing.TB, s *relstore.Store, table string, rows []types.Row) {
	t.Helper()
	if _, err := s.Insert(ctx, table, rows); err != nil {
		t.Fatal(err)
	}
}

// rowsAsStrings renders result rows for order-insensitive comparison.
func rowsAsStrings(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r.String()
	}
	return out
}

// wantRows asserts the result matches want (order-insensitive unless
// ordered is true).
func wantRows(t *testing.T, res *Result, ordered bool, want ...string) {
	t.Helper()
	got := rowsAsStrings(res)
	if !ordered {
		sort.Strings(got)
		sort.Strings(want)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d rows %v, want %d rows %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %s, want %s\nall: %v", i, got[i], want[i], got)
		}
	}
}

func query(t *testing.T, e *Engine, q string, params ...types.Value) *Result {
	t.Helper()
	res, err := e.Query(ctx, q, params...)
	if err != nil {
		t.Fatalf("Query(%q): %v", q, err)
	}
	return res
}

func TestSelectStar(t *testing.T) {
	e := newTestEngine(t)
	res := query(t, e, "SELECT * FROM customers")
	cols := columnNames(res)
	if len(res.Rows) != 4 || len(cols) != 4 {
		t.Fatalf("rows=%d cols=%v", len(res.Rows), cols)
	}
	if cols[0] != "id" || cols[3] != "balance" {
		t.Errorf("columns = %v", cols)
	}
}

// columnNames lists the names of a result's columns.
func columnNames(res *Result) []string {
	out := make([]string, res.Schema.Len())
	for i, c := range res.Schema.Columns {
		out[i] = c.Name
	}
	return out
}

func TestFilterAndProjection(t *testing.T) {
	e := newTestEngine(t)
	res := query(t, e, "SELECT name FROM customers WHERE region = 'east'")
	wantRows(t, res, false, "(alice)", "(carol)")
	res = query(t, e, "SELECT name, balance * 2 AS dbl FROM customers WHERE balance >= 200")
	wantRows(t, res, false, "(bob, 400)", "(carol, 600)")
	if cols := columnNames(res); cols[1] != "dbl" {
		t.Errorf("alias lost: %v", cols)
	}
}

func TestExpressionsAndFunctions(t *testing.T) {
	e := newTestEngine(t)
	res := query(t, e, "SELECT UPPER(name), CASE WHEN balance > 150 THEN 'rich' ELSE 'poor' END FROM customers WHERE id = 1")
	wantRows(t, res, false, "(ALICE, poor)")
	res = query(t, e, "SELECT name FROM customers WHERE name LIKE '%a%' AND balance BETWEEN 60 AND 250")
	wantRows(t, res, false, "(alice)")
}

func TestMultiFragmentScan(t *testing.T) {
	e := newTestEngine(t)
	res := query(t, e, "SELECT oid FROM orders")
	wantRows(t, res, false, "(10)", "(11)", "(12)", "(100)", "(101)", "(102)")
	// Partition pruning: only the ny fragment can hold oid < 50.
	res = query(t, e, "SELECT oid FROM orders WHERE oid < 50")
	wantRows(t, res, false, "(10)", "(11)", "(12)")
	plan, err := e.Explain(ctx, "SELECT oid FROM orders WHERE oid < 50")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "eu.orders") {
		t.Errorf("pruned fragment still in plan:\n%s", plan)
	}
}

func TestJoinAcrossSources(t *testing.T) {
	e := newTestEngine(t)
	res := query(t, e, `
		SELECT c.name, o.oid FROM customers c JOIN orders o ON c.id = o.cust_id
		WHERE c.region = 'east'`)
	wantRows(t, res, false, "(alice, 10)", "(alice, 12)", "(carol, 100)", "(carol, 102)")
}

func TestJoinWithKVStore(t *testing.T) {
	e := newTestEngine(t)
	// products lives in a keyed store: the optimizer may pick semijoin
	// or bind; either way results must be right.
	res := query(t, e, `
		SELECT o.oid, p.pname, p.price FROM orders o JOIN products p ON o.sku = p.sku
		WHERE o.qty >= 5`)
	wantRows(t, res, false, "(12, sprocket, 1.25)", "(100, widget, 9.5)")
}

func TestThreeWayJoin(t *testing.T) {
	e := newTestEngine(t)
	res := query(t, e, `
		SELECT c.name, p.pname, o.qty
		FROM customers c JOIN orders o ON c.id = o.cust_id JOIN products p ON o.sku = p.sku
		WHERE p.price > 10`)
	wantRows(t, res, false, "(bob, gadget, 1)", "(dave, gadget, 3)", "(carol, gizmo, 1)")
}

func TestJoinWithFileSource(t *testing.T) {
	e := newTestEngine(t)
	res := query(t, e, `
		SELECT c.name, s.sname FROM customers c JOIN suppliers s ON c.region = s.sregion
		WHERE c.id = 1`)
	wantRows(t, res, false, "(alice, acme)", "(alice, initech)")
}

func TestLeftJoin(t *testing.T) {
	e := newTestEngine(t)
	res := query(t, e, `
		SELECT c.name, o.oid FROM customers c LEFT JOIN orders o
		ON c.id = o.cust_id AND o.qty > 2`)
	wantRows(t, res, false,
		"(alice, 12)", "(bob, NULL)", "(carol, 100)", "(dave, 101)")
}

func TestAggregation(t *testing.T) {
	e := newTestEngine(t)
	res := query(t, e, "SELECT region, COUNT(*), SUM(balance) FROM customers GROUP BY region ORDER BY region")
	wantRows(t, res, true, "(east, 2, 400)", "(west, 2, 250)")
	res = query(t, e, "SELECT COUNT(*), MIN(balance), MAX(balance), AVG(balance) FROM customers")
	wantRows(t, res, false, "(4, 50, 300, 162.5)")
	res = query(t, e, "SELECT COUNT(DISTINCT sku) FROM orders")
	wantRows(t, res, false, "(4)")
}

func TestHaving(t *testing.T) {
	e := newTestEngine(t)
	res := query(t, e, `
		SELECT cust_id, COUNT(*) AS n FROM orders GROUP BY cust_id HAVING COUNT(*) > 1 ORDER BY cust_id`)
	wantRows(t, res, true, "(1, 2)", "(3, 2)")
}

func TestAggOverJoin(t *testing.T) {
	e := newTestEngine(t)
	res := query(t, e, `
		SELECT c.region, SUM(o.qty * p.price) AS revenue
		FROM customers c JOIN orders o ON c.id = o.cust_id JOIN products p ON o.sku = p.sku
		GROUP BY c.region ORDER BY c.region`)
	// east: alice(2*9.5 + 5*1.25) + carol(7*9.5 + 1*99) = 19+6.25+66.5+99 = 190.75
	// west: bob(1*20) + dave(3*20) = 80
	wantRows(t, res, true, "(east, 190.75)", "(west, 80)")
}

func TestOrderByLimitOffset(t *testing.T) {
	e := newTestEngine(t)
	res := query(t, e, "SELECT name FROM customers ORDER BY balance DESC LIMIT 2")
	wantRows(t, res, true, "(carol)", "(bob)")
	res = query(t, e, "SELECT name FROM customers ORDER BY balance DESC LIMIT 2 OFFSET 1")
	wantRows(t, res, true, "(bob)", "(alice)")
	// ORDER BY a column not in the select list (hidden sort column).
	res = query(t, e, "SELECT name FROM customers ORDER BY balance LIMIT 1")
	wantRows(t, res, true, "(dave)")
}

func TestDistinctAndUnion(t *testing.T) {
	e := newTestEngine(t)
	res := query(t, e, "SELECT DISTINCT region FROM customers")
	wantRows(t, res, false, "(east)", "(west)")
	res = query(t, e, "SELECT region FROM customers UNION SELECT sregion FROM suppliers")
	wantRows(t, res, false, "(east)", "(west)")
	res = query(t, e, "SELECT region FROM customers WHERE id = 1 UNION ALL SELECT sregion FROM suppliers WHERE sid = 1")
	wantRows(t, res, false, "(east)", "(east)")
}

func TestSubqueries(t *testing.T) {
	e := newTestEngine(t)
	res := query(t, e, `
		SELECT name FROM customers WHERE id IN (SELECT cust_id FROM orders WHERE qty > 4)`)
	wantRows(t, res, false, "(alice)", "(carol)")
	res = query(t, e, `
		SELECT name FROM customers WHERE id NOT IN (SELECT cust_id FROM orders WHERE qty > 4)`)
	wantRows(t, res, false, "(bob)", "(dave)")
	res = query(t, e, `SELECT name FROM customers WHERE EXISTS (SELECT 1 FROM orders WHERE qty > 100)`)
	wantRows(t, res, false)
	res = query(t, e, `SELECT name FROM customers WHERE balance > (SELECT AVG(balance) FROM customers)`)
	wantRows(t, res, false, "(bob)", "(carol)")
}

// TestInSubqueryListIsDistinct: the literal list an IN subquery plans as
// holds each distinct value once — NULL, which decides NOT IN, included —
// however many rows the subquery returned, and the answers are those of
// the row-per-literal list.
func TestInSubqueryListIsDistinct(t *testing.T) {
	e := newTestEngine(t)
	for _, c := range []struct {
		sub       string
		distinct  int
		in, notIn []string
	}{
		// cust_id over the six orders: 1, 2, 1, 3, 4, 3.
		{"SELECT cust_id FROM orders", 4, []string{"(alice)", "(bob)", "(carol)", "(dave)"}, nil},
		// Over the four of qty >= 2: 1, 1, 3, 4.
		{"SELECT cust_id FROM orders WHERE qty >= 2", 3, []string{"(alice)", "(carol)", "(dave)"}, []string{"(bob)"}},
		// One per customer, NULL without an order of qty > 4: 1, NULL, 3, NULL.
		{"SELECT o.cust_id FROM customers c LEFT JOIN orders o ON c.id = o.cust_id AND o.qty > 4", 3, []string{"(alice)", "(carol)"}, nil},
	} {
		out, err := e.Explain(ctx, "SELECT name FROM customers WHERE id IN ("+c.sub+")")
		if err != nil {
			t.Fatal(err)
		}
		_, list, ok := strings.Cut(out, " IN (")
		if !ok {
			t.Fatalf("no IN list in the plan:\n%s", out)
		}
		list, _, _ = strings.Cut(list, ")")
		if got := len(strings.Split(list, ", ")); got != c.distinct {
			t.Errorf("IN (%s) planned %d literals (%s), want the %d distinct values", c.sub, got, list, c.distinct)
		}
		wantRows(t, query(t, e, "SELECT name FROM customers WHERE id IN ("+c.sub+")"), false, c.in...)
		wantRows(t, query(t, e, "SELECT name FROM customers WHERE id NOT IN ("+c.sub+")"), false, c.notIn...)
	}
}

func TestDerivedTable(t *testing.T) {
	e := newTestEngine(t)
	res := query(t, e, `
		SELECT d.region, d.total FROM
		  (SELECT region, SUM(balance) AS total FROM customers GROUP BY region) AS d
		WHERE d.total > 300`)
	wantRows(t, res, false, "(east, 400)")
}

func TestParams(t *testing.T) {
	e := newTestEngine(t)
	res := query(t, e, "SELECT name FROM customers WHERE balance > ?", types.NewFloat(150))
	wantRows(t, res, false, "(bob)", "(carol)")
}

func TestExplainShape(t *testing.T) {
	e := newTestEngine(t)
	out, err := e.Explain(ctx, "EXPLAIN SELECT name FROM customers WHERE region = 'east'")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "FragScan ny.customers") {
		t.Errorf("explain missing frag scan:\n%s", out)
	}
	if !strings.Contains(out, "where") {
		t.Errorf("filter not pushed into source query:\n%s", out)
	}
}

func TestInsertRoutingAndReadBack(t *testing.T) {
	e := newTestEngine(t)
	// oid 50 routes to ny (oid < 100), oid 200 to eu.
	n, err := e.Exec(ctx, "INSERT INTO orders (oid, cust_id, sku, qty) VALUES (50, 1, 501, 1), (200, 2, 502, 2)")
	if err != nil || n != 2 {
		t.Fatalf("insert = %d, %v", n, err)
	}
	res := query(t, e, "SELECT oid FROM orders WHERE oid IN (50, 200)")
	wantRows(t, res, false, "(50)", "(200)")
	// A row matching no partition errors.
	if _, err := e.Exec(ctx, "INSERT INTO customers (id) VALUES (99)"); err != nil {
		t.Fatalf("single-fragment insert: %v", err)
	}
}

func TestUpdateDeleteSingleSource(t *testing.T) {
	e := newTestEngine(t)
	n, err := e.Exec(ctx, "UPDATE customers SET balance = balance + 10 WHERE region = 'east'")
	if err != nil || n != 2 {
		t.Fatalf("update = %d, %v", n, err)
	}
	res := query(t, e, "SELECT balance FROM customers WHERE id = 1")
	wantRows(t, res, false, "(110)")
	n, err = e.Exec(ctx, "DELETE FROM customers WHERE id = 4")
	if err != nil || n != 1 {
		t.Fatalf("delete = %d, %v", n, err)
	}
	res = query(t, e, "SELECT COUNT(*) FROM customers")
	wantRows(t, res, false, "(3)")
}

func TestUpdateAcrossSources2PC(t *testing.T) {
	e := newTestEngine(t)
	// Touches both the ny and eu order fragments → two participants.
	n, err := e.Exec(ctx, "UPDATE orders SET qty = qty + 1 WHERE sku = 501")
	if err != nil || n != 2 {
		t.Fatalf("cross-source update = %d, %v", n, err)
	}
	res := query(t, e, "SELECT oid, qty FROM orders WHERE sku = 501")
	wantRows(t, res, false, "(10, 3)", "(100, 8)")
	// The coordinator logged exactly one commit decision with 2 parts.
	log := e.Coordinator().Log().Decisions()
	if len(log) != 1 || len(log[0].Participants) != 2 {
		t.Errorf("decision log = %+v", log)
	}
}

func TestDeleteAcrossSources(t *testing.T) {
	e := newTestEngine(t)
	n, err := e.Exec(ctx, "DELETE FROM orders WHERE sku = 502")
	if err != nil || n != 2 {
		t.Fatalf("cross delete = %d, %v", n, err)
	}
	res := query(t, e, "SELECT COUNT(*) FROM orders")
	wantRows(t, res, false, "(4)")
}

func TestWriteToNonWritableSourceFails(t *testing.T) {
	e := newTestEngine(t)
	if _, err := e.Exec(ctx, "INSERT INTO suppliers (sid, sname, sregion) VALUES (9, 'x', 'y')"); err == nil {
		t.Error("insert into file source must fail")
	}
}

func TestMultiSourceWriteNeedsTxn(t *testing.T) {
	e := newTestEngine(t)
	// orders ∪ products spans relstore+kvstore — but a single UPDATE
	// only targets one table; craft an update touching both fragments
	// where one particip can't do txn: not possible for orders (both
	// relstores). Updating products (kvstore, single source) works
	// without transactions.
	n, err := e.Exec(ctx, "UPDATE products SET price = price * 2 WHERE sku = 501")
	if err != nil || n != 1 {
		t.Fatalf("kv update = %d, %v", n, err)
	}
	res := query(t, e, "SELECT price FROM products WHERE sku = 501")
	wantRows(t, res, false, "(19)")
}

// refusing is a relstore whose transactions vote no.
type refusing struct{ *relstore.Store }

func (r refusing) BeginTx(ctx context.Context) (source.Tx, error) {
	tx, err := r.Store.BeginTx(ctx)
	return refusingTx{tx}, err
}

type refusingTx struct{ source.Tx }

func (refusingTx) Prepare(context.Context) error { return errors.New("prepare refused") }

func TestAbortOnVoteNoLeavesStoresConsistent(t *testing.T) {
	e := newTestEngineVia(t, func(s source.Source) source.Source {
		if st, ok := s.(*relstore.Store); ok && st.Name() == "eu" {
			return refusing{st}
		}
		return s
	})
	if _, err := e.Exec(ctx, "UPDATE orders SET qty = 0"); err == nil {
		t.Fatal("2PC with failing participant must error")
	}
	// Neither store applied anything.
	res := query(t, e, "SELECT COUNT(*) FROM orders WHERE qty = 0")
	wantRows(t, res, false, "(0)")
}

func TestErrorPaths(t *testing.T) {
	e := newTestEngine(t)
	bad := []string{
		"SELECT nope FROM customers",
		"SELECT * FROM nonexistent",
		"SELECT name FROM customers WHERE region = 5",
		"SELECT region, SUM(balance) FROM customers",                        // bare col without GROUP BY
		"SELECT name FROM customers GROUP BY region",                        // name not grouped
		"SELECT region, SUM(COUNT(balance)) FROM customers GROUP BY region", // nested aggregate
		"SELECT * FROM customers UNION SELECT sid FROM suppliers",           // arity
	}
	for _, q := range bad {
		if _, err := e.Query(ctx, q); err == nil {
			t.Errorf("Query(%q) should fail", q)
		}
	}
	if _, err := e.Exec(ctx, "SELECT 1"); err == nil {
		t.Error("Exec(SELECT) must fail")
	}
	if _, err := e.Query(ctx, "DELETE FROM customers"); err == nil {
		t.Error("Query(DELETE) must fail")
	}
}

func TestRunDispatch(t *testing.T) {
	e := newTestEngine(t)
	res, err := e.Run(ctx, "SELECT COUNT(*) FROM customers")
	if err != nil || res.Rows[0][0].Int() != 4 {
		t.Fatalf("Run select = %v, %v", res, err)
	}
	res, err = e.Run(ctx, "DELETE FROM customers WHERE id = 1")
	if err != nil || res.Rows[0][0].Int() != 1 {
		t.Fatalf("Run delete = %v, %v", res, err)
	}
	res, err = e.Run(ctx, "EXPLAIN SELECT * FROM customers")
	if err != nil || len(res.Rows) == 0 {
		t.Fatalf("Run explain = %v, %v", res, err)
	}
}

func TestQueryIterStreaming(t *testing.T) {
	e := newTestEngine(t)
	schema, it, err := e.QueryIter(ctx, "SELECT id FROM customers")
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if schema.Len() != 1 {
		t.Errorf("schema = %v", schema)
	}
	count := 0
	for {
		_, err := it.Next()
		if err != nil {
			break
		}
		count++
	}
	if count != 4 {
		t.Errorf("streamed %d rows", count)
	}
}

func TestResultString(t *testing.T) {
	e := newTestEngine(t)
	res := query(t, e, "SELECT id, name FROM customers WHERE id = 1")
	s := res.String()
	if !strings.Contains(s, "id") || !strings.Contains(s, "alice") {
		t.Errorf("result table:\n%s", s)
	}
}

func TestForcedStrategiesAgree(t *testing.T) {
	// Both distributed join strategies must return identical rows.
	baseline := map[string][]string{}
	for _, strat := range []plan.Strategy{plan.StrategyShipAll, plan.StrategySemiJoin} {
		e := newTestEngine(t)
		e.PlanOptions().ForceStrategy = strat
		for _, q := range []string{
			"SELECT o.oid, p.pname FROM orders o JOIN products p ON o.sku = p.sku",
			"SELECT c.name, o.oid FROM customers c JOIN orders o ON c.id = o.cust_id WHERE c.region = 'east'",
		} {
			res, err := e.Query(ctx, q)
			if err != nil {
				t.Fatalf("%s: %v", strat, err)
			}
			got := rowsAsStrings(res)
			sort.Strings(got)
			key := q
			if prev, ok := baseline[key]; ok {
				if fmt.Sprint(prev) != fmt.Sprint(got) {
					t.Errorf("strategy %s disagrees on %q:\n got %v\nwant %v", strat, q, got, prev)
				}
			} else {
				baseline[key] = got
			}
		}
	}
}

func TestParallelVsSequentialFragments(t *testing.T) {
	for _, parallel := range []bool{true, false} {
		e := newTestEngine(t)
		e.PlanOptions().ParallelFragments = parallel
		res := query(t, e, "SELECT COUNT(*) FROM orders")
		wantRows(t, res, false, "(6)")
	}
}

func TestOptimizerAblationsStillCorrect(t *testing.T) {
	// Turning each rule off must never change results.
	queries := []string{
		"SELECT name FROM customers WHERE region = 'east' AND balance > 100",
		"SELECT c.region, COUNT(*) FROM customers c JOIN orders o ON c.id = o.cust_id GROUP BY c.region",
		"SELECT o.oid FROM orders o JOIN products p ON o.sku = p.sku WHERE p.price < 10",
	}
	baseline := map[string][]string{}
	for _, mode := range []string{"full", "nopush", "noprune", "noreorder", "nofold"} {
		e := newTestEngine(t)
		switch mode {
		case "nopush":
			e.PlanOptions().PushFilters = false
		case "noprune":
			e.PlanOptions().PruneColumns = false
		case "noreorder":
			e.PlanOptions().JoinOrder = plan.OrderSyntactic
		case "nofold":
			e.PlanOptions().FoldConstants = false
		}
		for _, q := range queries {
			res, err := e.Query(ctx, q)
			if err != nil {
				t.Fatalf("%s %q: %v", mode, q, err)
			}
			got := rowsAsStrings(res)
			sort.Strings(got)
			if prev, ok := baseline[q]; ok {
				if fmt.Sprint(prev) != fmt.Sprint(got) {
					t.Errorf("mode %s changes results of %q:\n got %v\nwant %v", mode, q, got, prev)
				}
			} else {
				baseline[q] = got
			}
		}
	}
}

func TestTwoPhaseAggregationAcrossFragments(t *testing.T) {
	e := newTestEngine(t)
	// orders spans two sources; the planner pushes partial aggregates
	// into each fragment and combines them at the mediator.
	out, err := e.Explain(ctx, "SELECT sku, COUNT(*), SUM(qty), AVG(qty) FROM orders GROUP BY sku")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "aggs[") {
		t.Errorf("partial aggregation not pushed:\n%s", out)
	}
	if !strings.Contains(out, "Aggregate") {
		t.Errorf("final combine step missing:\n%s", out)
	}
	res := query(t, e, "SELECT sku, COUNT(*), SUM(qty), AVG(qty) FROM orders GROUP BY sku ORDER BY sku")
	// sku 501: orders (10,qty2) and (100,qty7): count 2, sum 9, avg 4.5
	// sku 502: (11,1),(101,3): count 2, sum 4, avg 2
	// sku 503: (12,5): count 1, sum 5, avg 5
	// sku 504: (102,1): count 1, sum 1, avg 1
	wantRows(t, res, true,
		"(501, 2, 9, 4.5)", "(502, 2, 4, 2)", "(503, 1, 5, 5)", "(504, 1, 1, 1)")
	// Global aggregate (no GROUP BY) across fragments.
	res = query(t, e, "SELECT COUNT(*), SUM(qty), MIN(qty), MAX(qty), AVG(qty) FROM orders")
	wantRows(t, res, false, "(6, 19, 1, 7, 3.1666666666666665)")
	// And the pushed plan agrees with the unpushed one.
	e.PlanOptions().PushAggregates = false
	res2 := query(t, e, "SELECT COUNT(*), SUM(qty), MIN(qty), MAX(qty), AVG(qty) FROM orders")
	if res.Rows[0].String() != res2.Rows[0].String() {
		t.Errorf("pushed %v != unpushed %v", res.Rows[0], res2.Rows[0])
	}
}

func TestDistributedTopK(t *testing.T) {
	e := newTestEngine(t)
	// orders spans two relstores (both sort+limit capable): the
	// per-fragment top-k ships, the mediator merges and cuts.
	out, err := e.Explain(ctx, "SELECT oid, qty FROM orders ORDER BY qty DESC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "limit 2") {
		t.Errorf("per-fragment limit not pushed:\n%s", out)
	}
	res := query(t, e, "SELECT oid, qty FROM orders ORDER BY qty DESC LIMIT 2")
	wantRows(t, res, true, "(100, 7)", "(12, 5)")
	// Results agree with the unpushed plan.
	e.PlanOptions().PushTopK = false
	res2 := query(t, e, "SELECT oid, qty FROM orders ORDER BY qty DESC LIMIT 2")
	if fmt.Sprint(rowsAsStrings(res)) != fmt.Sprint(rowsAsStrings(res2)) {
		t.Errorf("pushed %v != unpushed %v", res.Rows, res2.Rows)
	}
}

func TestTopKWithOffsetAcrossFragments(t *testing.T) {
	e := newTestEngine(t)
	res := query(t, e, "SELECT oid FROM orders ORDER BY oid LIMIT 2 OFFSET 2")
	wantRows(t, res, true, "(12)", "(100)")
}

func TestViews(t *testing.T) {
	e := newTestEngine(t)
	err := e.CreateView("east_customers",
		"SELECT id, name, balance FROM customers WHERE region = 'east'")
	if err != nil {
		t.Fatal(err)
	}
	res := query(t, e, "SELECT name FROM east_customers WHERE balance > 150")
	wantRows(t, res, false, "(carol)")
	// Views join like tables, under aliases.
	res = query(t, e, `
		SELECT ec.name, o.oid FROM east_customers ec JOIN orders o ON ec.id = o.cust_id
		WHERE o.qty > 4`)
	wantRows(t, res, false, "(alice, 12)", "(carol, 100)")
	// Views over views.
	if err := e.CreateView("rich_east", "SELECT name FROM east_customers WHERE balance > 200"); err != nil {
		t.Fatal(err)
	}
	res = query(t, e, "SELECT * FROM rich_east")
	wantRows(t, res, false, "(carol)")
	// A view name cannot collide with a table or an existing view.
	if err := e.CreateView("customers", "SELECT 1"); err == nil {
		t.Error("view/table collision must error")
	}
	if err := e.CreateView("east_customers", "SELECT 1"); err == nil {
		t.Error("duplicate view must error")
	}
	// Bodies must parse and plan.
	if err := e.CreateView("bad", "SELECT nope FROM customers"); err == nil {
		t.Error("invalid view body must error")
	}
	if err := e.CreateView("selfref", "SELECT * FROM selfref"); err == nil {
		t.Error("self-referencing view must error")
	}
	// An expression subquery, in the body or in a derived table of it, is
	// refused by rule, not as a planner error.
	for _, body := range []string{
		"SELECT id FROM customers WHERE id IN (SELECT cust_id FROM orders)",
		"SELECT * FROM (SELECT id FROM customers WHERE EXISTS (SELECT 1 FROM orders)) d",
	} {
		err := e.CreateView("subq", body)
		if err == nil || !strings.Contains(err.Error(), "may not hold an IN, EXISTS or scalar subquery") {
			t.Errorf("view %q: err = %v, want the subquery rule", body, err)
		}
	}
	// Filter pushdown reaches through views into the source query.
	plan, err := e.Explain(ctx, "SELECT name FROM east_customers WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "where") {
		t.Errorf("view predicate not pushed:\n%s", plan)
	}
}

// TestDerivedTablePlansOneProject: a derived table or a view adds no
// operator of its own. The select list over it, its alias and its own
// select list compose into one Project over the scan, whose rows pass
// one projection at the mediator, not three.
func TestDerivedTablePlansOneProject(t *testing.T) {
	e := newTestEngine(t)
	if err := e.CreateView("small_orders", "SELECT * FROM orders WHERE oid < 5"); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT q.oid FROM (SELECT * FROM orders WHERE oid < 5) q",
		"SELECT v.oid FROM small_orders v",
	} {
		out, err := e.Explain(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(out, "Project "); n != 1 {
			t.Errorf("%s plans %d Projects, want 1:\n%s", q, n, out)
		}
	}
}

func TestVerticalIntegrationViaView(t *testing.T) {
	// The classic vertical-partition pattern: two sources each hold some
	// columns of a logical entity; a view joins them on the key and
	// presents one wide table.
	e := newTestEngine(t)
	if err := e.CreateView("order_facts", `
		SELECT o.oid AS oid, o.qty AS qty, p.pname AS pname, p.price AS price
		FROM orders o JOIN products p ON o.sku = p.sku`); err != nil {
		t.Fatal(err)
	}
	res := query(t, e, "SELECT pname, qty * price AS total FROM order_facts WHERE oid = 12")
	wantRows(t, res, false, "(sprocket, 6.25)")
}

func TestRightJoin(t *testing.T) {
	e := newTestEngine(t)
	// products has sku 503/504 with few orders; a RIGHT JOIN keeps all
	// products, NULL-extending the order side.
	res := query(t, e, `
		SELECT o.oid, p.pname FROM orders o RIGHT JOIN products p ON o.sku = p.sku
		WHERE o.qty > 2 OR o.oid IS NULL`)
	// qty>2: oid 12 (sprocket qty 5), 100 (widget 7), 101 (gadget 3).
	wantRows(t, res, false,
		"(12, sprocket)", "(100, widget)", "(101, gadget)")
	// Unmatched right rows survive with NULL left columns.
	res = query(t, e, `
		SELECT p.pname FROM orders o RIGHT JOIN products p ON o.sku = p.sku AND o.qty > 100`)
	wantRows(t, res, false, "(widget)", "(gadget)", "(sprocket)", "(gizmo)")
	// RIGHT JOIN equals the mirrored LEFT JOIN.
	a := query(t, e, "SELECT c.name, o.oid FROM orders o RIGHT JOIN customers c ON c.id = o.cust_id")
	bq := query(t, e, "SELECT c.name, o.oid FROM customers c LEFT JOIN orders o ON c.id = o.cust_id")
	ga, gb := rowsAsStrings(a), rowsAsStrings(bq)
	sort.Strings(ga)
	sort.Strings(gb)
	if fmt.Sprint(ga) != fmt.Sprint(gb) {
		t.Errorf("RIGHT JOIN %v != mirrored LEFT JOIN %v", ga, gb)
	}
}

func TestExplainAnalyze(t *testing.T) {
	e := newTestEngine(t)
	out, err := e.ExplainAnalyze(ctx,
		"SELECT c.region, COUNT(*) FROM customers c JOIN orders o ON c.id = o.cust_id GROUP BY c.region")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "rows=") || !strings.Contains(out, "time=") {
		t.Errorf("missing measurements:\n%s", out)
	}
	if !strings.Contains(out, "total: 2 row(s)") {
		t.Errorf("missing total:\n%s", out)
	}
	// Scans report the rows they produced.
	if !strings.Contains(out, "FragScan ny.customers") {
		t.Errorf("plan shape:\n%s", out)
	}
	if _, err := e.ExplainAnalyze(ctx, "DELETE FROM customers"); err == nil {
		t.Error("EXPLAIN ANALYZE of a write must error")
	}
}

func TestConcurrentQueriesOneEngine(t *testing.T) {
	e := newTestEngine(t)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	queries := []string{
		"SELECT COUNT(*) FROM customers",
		"SELECT c.name, o.oid FROM customers c JOIN orders o ON c.id = o.cust_id",
		"SELECT region, SUM(balance) FROM customers GROUP BY region",
		"SELECT oid FROM orders ORDER BY qty DESC LIMIT 3",
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := e.Query(ctx, queries[(g+i)%len(queries)]); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestQueryContextCancellation(t *testing.T) {
	e := newTestEngine(t)
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := e.Query(cctx, "SELECT c.name FROM customers c JOIN orders o ON c.id = o.cust_id"); err == nil {
		t.Error("cancelled context must abort the query")
	}
}

// planText joins the one-column rows EXPLAIN returns through Run.
func planText(res *Result) string {
	out := ""
	for _, r := range res.Rows {
		out += r[0].Str() + "\n"
	}
	return out
}

// TestRunExplainsWhatItParsed: Run hands EXPLAIN [ANALYZE] the statement
// it parsed, parameters bound — not its text to parse a second time,
// which lost the parameters of an EXPLAIN and made an EXPLAIN ANALYZE
// two statements to the query log.
func TestRunExplainsWhatItParsed(t *testing.T) {
	e := newTestEngine(t)
	const q = "EXPLAIN SELECT name FROM customers WHERE id = ?"
	want, err := e.Explain(ctx, q, types.NewInt(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(ctx, q, types.NewInt(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := planText(res); got != want {
		t.Errorf("Run(EXPLAIN ... ?) =\n%swant Explain's\n%s", got, want)
	}

	var logged strings.Builder
	e.Queries().SetStructured(obs.NewStructuredLog(&logged, 1, nil))
	res, err = e.Run(ctx, "EXPLAIN ANALYZE SELECT COUNT(*) FROM orders WHERE qty > ?", types.NewInt(0))
	if err != nil {
		t.Fatal(err)
	}
	if out := planText(res); !strings.Contains(out, "rows=") || !strings.Contains(out, "total: 1 row(s)") {
		t.Errorf("EXPLAIN ANALYZE output:\n%s", out)
	}
	if n := strings.Count(logged.String(), "\n"); n != 1 {
		t.Errorf("one EXPLAIN ANALYZE through Run left %d query-log records:\n%s", n, logged.String())
	}
}

// TestExplainIsAdmitted: planning runs a statement's uncorrelated
// subqueries, so EXPLAIN is work like any other. With the one slot held,
// Explain of a statement with an IN subquery is shed as Query and
// Run("EXPLAIN ...") of it are — it used to scan orders unadmitted and
// return the plan — and once admitted it is in the query log.
func TestExplainIsAdmitted(t *testing.T) {
	e := newTestEngine(t)
	ctrl := admission.New(admission.Config{MaxInFlight: 1, MaxWait: 20 * time.Millisecond})
	e.SetAdmission(ctrl)
	_, held, err := ctrl.Admit(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Release()
	const q = "SELECT name FROM customers WHERE id IN (SELECT cust_id FROM orders)"
	_, qerr := e.Query(ctx, q)
	_, rerr := e.Run(ctx, "EXPLAIN "+q)
	_, xerr := e.Explain(ctx, q)
	for name, err := range map[string]error{"Query": qerr, "Run(EXPLAIN)": rerr, "Explain": xerr} {
		if !errors.Is(err, admission.ErrOverload) {
			t.Errorf("%s under a full admission controller: %v, want ErrOverload", name, err)
		}
	}

	held.Release()
	var logged strings.Builder
	e.Queries().SetStructured(obs.NewStructuredLog(&logged, 1, nil))
	if _, err := e.Explain(ctx, q); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(logged.String(), "\n"); n != 1 {
		t.Errorf("an admitted Explain left %d query-log records:\n%s", n, logged.String())
	}
}

func TestExplainAnalyzeSQL(t *testing.T) {
	e := newTestEngine(t)
	res, err := e.Run(ctx, "EXPLAIN ANALYZE SELECT COUNT(*) FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if out := planText(res); !strings.Contains(out, "rows=") || !strings.Contains(out, "total: 1 row(s)") {
		t.Errorf("EXPLAIN ANALYZE output:\n%s", out)
	}
}
