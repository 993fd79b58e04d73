package core

import (
	"context"
	"strings"
	"testing"

	"gis/internal/catalog"
	"gis/internal/expr"
	"gis/internal/relstore"
	"gis/internal/source"
	"gis/internal/types"
	"gis/internal/wire"
)

// groupByEngine is newTestEngine's two relstore tables — customers on
// one site, orders split over two — with each store handed to the
// catalog as wrap returns it.
func groupByEngine(t *testing.T, wrap func(*testing.T, *relstore.Store) source.Source) *Engine {
	t.Helper()
	custSchema := types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "name", Type: types.KindString},
		types.Column{Name: "region", Type: types.KindString},
		types.Column{Name: "balance", Type: types.KindFloat},
	)
	orderSchema := types.NewSchema(
		types.Column{Name: "oid", Type: types.KindInt},
		types.Column{Name: "cust_id", Type: types.KindInt},
	)
	ny, eu := relstore.New("ny"), relstore.New("eu")
	if err := ny.CreateTable("customers", custSchema, 0); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, ny, "customers", []types.Row{
		{types.NewInt(1), types.NewString("alice"), types.NewString("east"), types.NewFloat(100)},
		{types.NewInt(2), types.NewString("bob"), types.NewString("west"), types.NewFloat(200)},
		{types.NewInt(3), types.NewString("carol"), types.NewString("east"), types.NewFloat(300)},
		{types.NewInt(4), types.NewString("dave"), types.NewString("west"), types.NewFloat(50)},
	})
	for st, base := range map[*relstore.Store]int64{ny: 10, eu: 100} {
		if err := st.CreateTable("orders", orderSchema, 0); err != nil {
			t.Fatal(err)
		}
		mustInsert(t, st, "orders", []types.Row{
			{types.NewInt(base), types.NewInt(base/50 + 1)},
			{types.NewInt(base + 1), types.NewInt(base/50 + 2)},
			{types.NewInt(base + 2), types.NewInt(base/50 + 1)},
		})
	}

	e := New()
	cat := e.Catalog()
	for _, st := range []*relstore.Store{ny, eu} {
		if err := cat.AddSource(wrap(t, st)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.DefineTable("customers", custSchema); err != nil {
		t.Fatal(err)
	}
	if err := cat.MapSimple(ctx, "customers", "ny", "customers"); err != nil {
		t.Fatal(err)
	}
	if err := cat.DefineTable("orders", orderSchema); err != nil {
		t.Fatal(err)
	}
	oid, hundred := expr.NewColRef("", "oid"), expr.NewConst(types.NewInt(100))
	for src, where := range map[string]expr.Expr{
		"ny": expr.NewBinary(expr.OpLt, oid, hundred),
		"eu": expr.NewBinary(expr.OpGe, oid, hundred),
	} {
		if err := cat.MapFragment(ctx, "orders", &catalog.Fragment{
			Source: src, RemoteTable: "orders", Where: where,
			Columns: []catalog.ColumnMapping{{RemoteCol: 0}, {RemoteCol: 1}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// overWire serves a store on loopback and returns the client dialled to
// it, under the store's name.
func overWire(t *testing.T, st source.Source) source.Source {
	t.Helper()
	srv, err := wire.Serve(context.Background(), "127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := wire.DialContext(ctx, srv.Addr(), wire.WithName(st.Name()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// GROUP BY with no aggregate is pushed whole to a single-fragment
// relstore table as a query with GroupBy and no Aggs. It must come back
// as one row per key under the one-column schema, not as the table.
func TestGroupByWithoutAggregates(t *testing.T) {
	for name, wrap := range map[string]func(*testing.T, *relstore.Store) source.Source{
		"local": func(_ *testing.T, st *relstore.Store) source.Source { return st },
		"wire":  func(t *testing.T, st *relstore.Store) source.Source { return overWire(t, st) },
	} {
		t.Run(name, func(t *testing.T) {
			e := groupByEngine(t, wrap)
			wantRows(t, query(t, e, "SELECT region FROM customers GROUP BY region"), false, "(east)", "(west)")
			wantRows(t, query(t, e, "SELECT region FROM customers GROUP BY region ORDER BY region"), true, "(east)", "(west)")
			wantRows(t, query(t, e, "SELECT DISTINCT region FROM customers"), false, "(east)", "(west)")
			wantRows(t, query(t, e, "SELECT cust_id FROM orders GROUP BY cust_id"), false, "(1)", "(2)", "(3)", "(4)")
		})
	}
}

// A FLOAT literal prints as a FLOAT, so the planner, which names and
// deduplicates aggregates and matches GROUP BY keys by their printed
// form, keeps oid / 2 (integer division) and oid / 2.0 apart: two sums,
// in either order, and a select item that is not the grouping key is
// refused instead of answered from it. When 2.0 printed as 2, the second
// sum answered with the first and the GROUP BY query with 5.5, 50.5, ….
func TestFloatLiteralKeepsItsKind(t *testing.T) {
	for name, wrap := range map[string]func(*testing.T, *relstore.Store) source.Source{
		"local": func(_ *testing.T, st *relstore.Store) source.Source { return st },
		"wire":  func(t *testing.T, st *relstore.Store) source.Source { return overWire(t, st) },
	} {
		t.Run(name, func(t *testing.T) {
			e := groupByEngine(t, wrap)
			for q, want := range map[string]string{
				"SELECT SUM(oid / 2), SUM(oid / 2.0) FROM orders":            "(167, 168)",
				"SELECT SUM(oid / 2.0), SUM(oid / 2) FROM orders":            "(168, 167)",
				"SELECT oid / 2 AS a FROM orders GROUP BY oid / 2.0":         "error",
				"SELECT MAX(balance * 1), MAX(balance * 1.0) FROM customers": "columns MAX((balance * 1)), MAX((balance * 1.0))",
			} {
				got := "error"
				if res, err := e.Query(ctx, q); err == nil && strings.HasPrefix(want, "columns") {
					got = "columns " + strings.Join(res.Columns, ", ")
				} else if err == nil {
					got = strings.Join(rowsAsStrings(res), " ")
				}
				if got != want {
					t.Errorf("%s = %s, want %s", q, got, want)
				}
			}
		})
	}
}

// Bind refuses a predicate it cannot type, as it refuses oid = '10': an
// IN element or a simple CASE's WHEN value that does not compare with
// its operand, and a NOT or a searched CASE's WHEN over something that is
// not a truth value. Each was answered before: the mismatched element
// dropped, NOT of an INT false, the WHEN never matching.
func TestBindRefusesWhatItCannotType(t *testing.T) {
	e := groupByEngine(t, func(_ *testing.T, st *relstore.Store) source.Source { return st })
	for _, q := range []string{
		"SELECT oid FROM orders WHERE oid IN ('10', 11)",
		"SELECT oid FROM orders WHERE oid NOT IN ('10', 11)",
		"SELECT NOT oid FROM orders",
		"SELECT oid FROM orders WHERE NOT oid",
		"SELECT CASE WHEN oid THEN 1 ELSE 0 END FROM orders",
		"SELECT CASE oid WHEN 'x' THEN 1 ELSE 0 END FROM orders",
	} {
		res, err := e.Query(ctx, q)
		if err == nil {
			t.Errorf("%s = %v, want a bind error", q, rowsAsStrings(res))
		} else if !strings.Contains(err.Error(), "INT") {
			t.Errorf("%s: %v, want the error to name the operand's kind", q, err)
		}
	}
}
