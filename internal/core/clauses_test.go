package core

import (
	"strings"
	"testing"

	"gis/internal/relstore"
	"gis/internal/source"
	"gis/internal/types"
)

// TestSubqueryInEveryClause puts an uncorrelated subquery in each slot of
// a statement that sql.VisitExprs hands, on newTestEngine's data, with
// the answers worked out by hand: AVG(balance) is 162.5, the orders with
// qty ≥ 5 are 12 (alice) and 100 (carol), and gizmo costs 99.
func TestSubqueryInEveryClause(t *testing.T) {
	e := newTestEngine(t)
	for _, c := range []struct {
		clause, sql string
		ordered     bool
		want        []string
	}{
		{"WHERE", "SELECT name FROM customers WHERE id IN (SELECT cust_id FROM orders WHERE qty > 4)",
			false, []string{"(alice)", "(carol)"}},
		{"HAVING", "SELECT region, COUNT(*) FROM customers GROUP BY region HAVING MAX(balance) > (SELECT balance FROM customers WHERE id = 2)",
			false, []string{"(east, 2)"}},
		{"select list", "SELECT name, (SELECT COUNT(*) FROM orders) FROM customers WHERE id = 1",
			false, []string{"(alice, 6)"}},
		{"inner ON", "SELECT c.name, o.oid FROM customers c JOIN orders o ON c.id = o.cust_id AND o.qty IN (SELECT qty FROM orders WHERE qty >= 5)",
			false, []string{"(alice, 12)", "(carol, 100)"}},
		{"LEFT JOIN ON", "SELECT c.name, o.oid FROM customers c LEFT JOIN orders o ON c.id = o.cust_id AND o.qty > 2 AND EXISTS (SELECT 1 FROM products WHERE price > 50)",
			false, []string{"(alice, 12)", "(bob, NULL)", "(carol, 100)", "(dave, 101)"}},
		{"GROUP BY", "SELECT COUNT(*) FROM orders GROUP BY cust_id = (SELECT MIN(id) FROM customers)",
			false, []string{"(2)", "(4)"}},
		{"ORDER BY", "SELECT name FROM customers ORDER BY ABS(balance - (SELECT AVG(balance) FROM customers))",
			true, []string{"(bob)", "(alice)", "(dave)", "(carol)"}},
		{"derived table", "SELECT d.name FROM (SELECT name FROM customers WHERE balance > (SELECT AVG(balance) FROM customers)) d",
			false, []string{"(bob)", "(carol)"}},
		{"UNION arm", "SELECT name FROM customers WHERE id = 1 UNION SELECT sname FROM suppliers WHERE sid IN (SELECT MAX(sid) FROM suppliers)",
			false, []string{"(alice)", "(initech)"}},
	} {
		res, err := e.Query(ctx, c.sql)
		if err != nil {
			t.Errorf("%s: %v", c.clause, err)
			continue
		}
		wantRows(t, res, c.ordered, c.want...)
	}
	// The writes, in order, each read back: MAX(id) is 4, the order of
	// sku 504 is carol's, and dave's one order is 101.
	for _, w := range []struct {
		clause, sql, check string
		want               []string
	}{
		{"INSERT VALUES", "INSERT INTO customers VALUES ((SELECT MAX(id) FROM customers) + 10, 'erin', 'north', 0)",
			"SELECT id, name FROM customers WHERE id > 4", []string{"(14, erin)"}},
		{"UPDATE SET and WHERE", "UPDATE customers SET balance = (SELECT MAX(price) FROM products) WHERE id IN (SELECT cust_id FROM orders WHERE sku = 504)",
			"SELECT name, balance FROM customers WHERE balance > 90 AND balance < 100", []string{"(carol, 99)"}},
		{"DELETE WHERE", "DELETE FROM orders WHERE cust_id = (SELECT id FROM customers WHERE name = 'dave')",
			"SELECT oid FROM orders WHERE cust_id = 4 OR oid = 101", nil},
	} {
		n, err := e.Exec(ctx, w.sql)
		if err != nil || n != 1 {
			t.Errorf("%s: %d rows, %v; want 1", w.clause, n, err)
			continue
		}
		wantRows(t, query(t, e, w.check), false, w.want...)
	}
}

// TestOrderByResolution holds ORDER BY to what SQL says a key means: an
// integer literal as written is a position among the output columns (a
// parameter's or a subquery's integer is a value, the same on every row),
// a key printed as an unaliased select item is that item's column, and
// any other key is an expression, over the output columns or else hidden
// over the select list's input, where an aggregate is the column the
// select list computes it in, aliased or not (and an aggregate of a
// grouped column reads the group's rows, not its key). A position out of
// range and an aggregate the select list does not compute are refused
// when the statement is planned; a UNION or a DISTINCT takes output keys
// only.
func TestOrderByResolution(t *testing.T) {
	e := newTestEngine(t)
	for _, c := range []struct {
		sql    string
		params []types.Value
		want   []string
	}{
		{"SELECT name, balance FROM customers ORDER BY 2", nil, []string{"(dave, 50)", "(alice, 100)", "(bob, 200)", "(carol, 300)"}},
		{"SELECT name, balance FROM customers ORDER BY ?, name", []types.Value{types.NewInt(2)}, []string{"(alice, 100)", "(bob, 200)", "(carol, 300)", "(dave, 50)"}},
		{"SELECT name, balance FROM customers ORDER BY (SELECT 2), name", nil, []string{"(alice, 100)", "(bob, 200)", "(carol, 300)", "(dave, 50)"}},
		{"SELECT name, balance FROM customers ORDER BY region, 2 DESC", nil, []string{"(carol, 300)", "(alice, 100)", "(bob, 200)", "(dave, 50)"}},
		{"SELECT region, MAX(balance) FROM customers GROUP BY region ORDER BY MAX(balance) DESC", nil, []string{"(east, 300)", "(west, 200)"}},
		{"SELECT UPPER(region), COUNT(*) FROM customers GROUP BY UPPER(region) ORDER BY UPPER(region)", nil, []string{"(EAST, 2)", "(WEST, 2)"}},
		{"SELECT region, COUNT(*) FROM customers GROUP BY region ORDER BY COUNT(*) DESC, 1", nil, []string{"(east, 2)", "(west, 2)"}},
		{"SELECT region, SUM(balance) AS s FROM customers GROUP BY region ORDER BY SUM(balance)", nil, []string{"(west, 250)", "(east, 400)"}},
		{"SELECT region, SUM(balance) AS s FROM customers GROUP BY region ORDER BY s", nil, []string{"(west, 250)", "(east, 400)"}},
		{"SELECT region, COUNT(region), MAX(region) FROM customers GROUP BY region HAVING COUNT(region) > 1 ORDER BY COUNT(region), 1", nil, []string{"(east, 2, east)", "(west, 2, west)"}},
		{"SELECT name FROM customers ORDER BY balance DESC", nil, []string{"(carol)", "(bob)", "(alice)", "(dave)"}},
		{"SELECT name FROM customers WHERE id < 3 UNION SELECT sname FROM suppliers ORDER BY 1", nil, []string{"(acme)", "(alice)", "(bob)", "(globex)", "(initech)"}},
		{"SELECT DISTINCT region FROM customers ORDER BY 1 DESC", nil, []string{"(west)", "(east)"}},
	} {
		res, err := e.Query(ctx, c.sql, c.params...)
		if err != nil {
			t.Errorf("%s: %v", c.sql, err)
			continue
		}
		wantRows(t, res, true, c.want...)
	}
	for _, c := range []struct{ sql, err string }{
		{"SELECT name, balance FROM customers ORDER BY 0", "ORDER BY position 0 is not in the select list"},
		{"SELECT name, balance FROM customers ORDER BY 3", "ORDER BY position 3 is not in the select list"},
		{"SELECT region FROM customers GROUP BY region ORDER BY COUNT(*)", "the select list does not compute this aggregate"},
		{"SELECT name FROM customers ORDER BY COUNT(*)", "the select list does not compute this aggregate"},
		{"SELECT name FROM customers UNION SELECT sname FROM suppliers ORDER BY balance", "does not name an output column"},
		{"SELECT DISTINCT region FROM customers ORDER BY balance", "does not name an output column"},
	} {
		// Explain plans and runs nothing: the error is the planner's.
		if _, err := e.Explain(ctx, c.sql); err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: err = %v, want %q", c.sql, err, c.err)
		}
	}
}

// TestLimitZeroAsksNoSource: LIMIT 0 returns no row whatever its input
// and offset, so it sends no sub-query, not even for a subquery of its
// WHERE; a limit of one row past the same offset still reads the
// fragment.
func TestLimitZeroAsksNoSource(t *testing.T) {
	var counter *callCounter
	e, _ := newMediatedEngineVia(t, func(st source.Source) source.Source {
		counter = &callCounter{Store: st.(*relstore.Store)}
		return counter
	})
	if _, err := e.Exec(ctx, "INSERT INTO items (id, status, weight_kg) VALUES (1, 'active', 1), (2, 'active', 2), (3, 'inactive', 3), (4, 'active', 4), (5, 'active', 5)"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sql         string
		rows, calls int
	}{
		{"SELECT id FROM items LIMIT 0 OFFSET 3", 0, 0},
		{"SELECT id FROM items LIMIT 0", 0, 0},
		{"SELECT id FROM items ORDER BY id LIMIT 1 OFFSET 3", 1, 1},
		{"SELECT id FROM items WHERE id IN (SELECT id FROM items WHERE weight_kg > 1) LIMIT 0", 0, 0},
	} {
		counter.calls = 0
		res, err := e.Query(ctx, c.sql)
		if err != nil || len(res.Rows) != c.rows || counter.calls != c.calls {
			n := -1
			if res != nil {
				n = len(res.Rows)
			}
			t.Errorf("%s: %d rows, %d source calls, %v; want %d rows, %d calls", c.sql, n, counter.calls, err, c.rows, c.calls)
		}
	}
}
