package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"gis/internal/expr"
	"gis/internal/relstore"
	"gis/internal/source"
	"gis/internal/types"
)

// fragments renders each fragment of table as its source, its remote
// table and the first column of its rows, sorted, and fails the test for
// a row that the fragment's partition predicate excludes. The fixtures
// map columns one to one where the predicates read, so a remote row is
// read as the global row it holds.
func fragments(t *testing.T, e *Engine, table string) string {
	t.Helper()
	tab, err := e.Catalog().Table(table)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(tab.Fragments))
	for i, f := range tab.Fragments {
		src, err := e.Catalog().Source(f.Source)
		if err != nil {
			t.Fatal(err)
		}
		it, err := src.Execute(ctx, source.NewScan(f.RemoteTable))
		if err != nil {
			t.Fatal(err)
		}
		rows, err := source.Drain(it)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]int64, 0, len(rows))
		for _, r := range rows {
			if ok, err := expr.EvalBool(f.Where, r); err != nil || !ok {
				t.Errorf("%s.%s holds %s, which its partition predicate %s excludes", f.Source, f.RemoteTable, r, f.Where)
			}
			keys = append(keys, r[0].Int())
		}
		slices.Sort(keys)
		out[i] = fmt.Sprintf("%s.%s %v", f.Source, f.RemoteTable, keys)
	}
	return strings.Join(out, ", ")
}

// moveCase is an UPDATE that writes the partitioning column: on success
// the rows it affected, the fragments afterwards and the answers of some
// reads; on failure (n < 0) the fragments as they were.
type moveCase struct {
	stmt      string
	n         int64
	fragments string
	reads     map[string][]string
}

func (c moveCase) check(t *testing.T, e *Engine, before string) {
	t.Helper()
	n, err := e.Exec(ctx, c.stmt)
	switch {
	case c.n < 0 && err == nil:
		t.Fatalf("%s succeeded on %d rows; the case needs it to fail", c.stmt, n)
	case c.n < 0:
		if got := fragments(t, e, tableOf(c.stmt)); got != before {
			t.Errorf("%s failed (%v) and left %s; want %s", c.stmt, err, got, before)
		}
		return
	case err != nil || n != c.n:
		t.Fatalf("%s: %d rows, %v; want %d", c.stmt, n, err, c.n)
	}
	if got := fragments(t, e, tableOf(c.stmt)); got != c.fragments {
		t.Errorf("%s left %s; want %s", c.stmt, got, c.fragments)
	}
	for q, want := range c.reads {
		wantRows(t, query(t, e, q), false, want...)
	}
}

// racing is a relstore whose transactions meet a concurrent writer: a
// row the filter matches lands just before each DELETE.
type racing struct {
	*relstore.Store
	extra types.Row
}

func (r racing) BeginTx(ctx context.Context) (source.Tx, error) {
	tx, err := r.Store.BeginTx(ctx)
	return racingTx{tx, r.extra}, err
}

type racingTx struct {
	source.Tx
	extra types.Row
}

func (r racingTx) Delete(ctx context.Context, table string, filter expr.Expr) (int64, error) {
	if _, err := r.Tx.Insert(ctx, table, []types.Row{r.extra}); err != nil {
		return 0, err
	}
	return r.Tx.Delete(ctx, table, filter)
}

// TestMoveAbortsWhenItsRowsChange: a move whose deletes remove other rows
// than it read — a writer got in between — would commit a row lost or
// twice; it aborts instead, and every fragment is as it was.
func TestMoveAbortsWhenItsRowsChange(t *testing.T) {
	st := relstore.New("one")
	e := twoFragmentsOneSource(t, st, racing{st, types.Row{types.NewInt(160), types.NewInt(9)}},
		func(name string, schema *types.Schema) error { return st.CreateTable(name, schema, 0) })
	before := fragments(t, e, "t")
	_, err := e.Exec(ctx, "UPDATE t SET id = id + 1 WHERE id >= 150")
	if err == nil || !strings.Contains(err.Error(), "read 1 rows to move and deleted 2") {
		t.Errorf("a move that met a concurrent writer: %v", err)
	}
	if after := fragments(t, e, "t"); after != before {
		t.Errorf("the aborted move left %s; want %s", after, before)
	}
}

// tableOf is the table an "UPDATE t SET …" statement names.
func tableOf(stmt string) string { return strings.Fields(stmt)[1] }

// TestUpdateOfPartitioningColumnMovesTheRow: an UPDATE whose SET writes a
// column a fragment's Where reads takes its rows out of the fragments
// that held them and puts each where its new values belong, so that the
// reads that prune by partition find it — in every wrapper class, across
// two sources and within one. A row that stays in its fragment keeps its
// key, and a move that fails anywhere leaves every fragment as it was.
// Each statement runs on a fresh federation. Before, the first statement
// left oid 150 at ny: the point read found nothing and the count was 3.
func TestUpdateOfPartitioningColumnMovesTheRow(t *testing.T) {
	const orders = "ny.orders [10 11 12], eu.orders [100 101 102]"
	acrossSources := []moveCase{
		{"UPDATE orders SET oid = 150 WHERE oid = 10", 1,
			"ny.orders [11 12], eu.orders [100 101 102 150]", map[string][]string{
				"SELECT oid, cust_id, sku, qty FROM orders WHERE oid = 150": {"(150, 1, 501, 2)"},
				"SELECT COUNT(*) FROM orders WHERE oid >= 100":              {"(4)"},
			}},
		{"UPDATE orders SET oid = oid * 9 WHERE oid IN (10, 12)", 2,
			"ny.orders [11 90], eu.orders [100 101 102 108]", map[string][]string{
				"SELECT oid, qty FROM orders WHERE oid = 90 OR oid = 108": {"(90, 2)", "(108, 5)"},
				"SELECT COUNT(*) FROM orders WHERE oid < 100":             {"(2)"},
			}},
		{"UPDATE orders SET oid = oid, qty = 9 WHERE cust_id = 1", 2, orders, map[string][]string{
			"SELECT oid, qty FROM orders WHERE cust_id = 1": {"(10, 9)", "(12, 9)"},
		}},
		{"UPDATE orders SET oid = 100 WHERE oid = 10", -1, "", nil}, // 100 is a duplicate key at eu
	}
	const one = "one.lo [1], one.hi [150]"
	withinOne := []moveCase{
		{"UPDATE t SET id = 2 WHERE id = 150", 1, "one.lo [1 2], one.hi []", map[string][]string{
			"SELECT id, v FROM t WHERE id = 2": {"(2, 7)"},
		}},
		{"UPDATE t SET id = id WHERE id > 0", 2, one, nil},
		{"UPDATE t SET id = 151 WHERE id = 1", -1, "", nil}, // 'a' is no INT at hi
	}
	for _, c := range wrapperClasses {
		t.Run(c.name, func(t *testing.T) {
			wrap := func(s source.Source) source.Source { return c.wrap(t, s) }
			for _, m := range acrossSources {
				e := newTestEngineVia(t, wrap)
				before := fragments(t, e, "orders")
				if before != orders {
					t.Fatalf("fixture: %s", before)
				}
				m.check(t, e, before)
			}
			for _, m := range withinOne {
				st := relstore.New("one")
				e := twoFragmentsOneSource(t, st, wrap(st), func(name string, schema *types.Schema) error {
					return st.CreateTable(name, schema, 0)
				})
				m.check(t, e, fragments(t, e, "t"))
			}
		})
	}
}
