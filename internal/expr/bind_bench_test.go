package expr_test

import (
	"testing"

	"gis/internal/expr"
	"gis/internal/sql"
	"gis/internal/types"
)

// BenchmarkBind is the binder's rung: the select list, WHERE and ON of
// each point_remote shape (texts and parameter kinds as bench/gen.go has
// them), parsed once and bound against the schema the planner binds them
// against — orders, or customers c beside orders o. Read B/op and
// allocs/op: what binding a statement's trees costs beside building them
// (sql's BenchmarkParse) and planning them (plan's BenchmarkPlan).
func BenchmarkBind(b *testing.B) {
	table := func(name string, cols ...types.Column) *types.Schema {
		for i := range cols {
			cols[i].Table = name
		}
		return types.NewSchema(cols...)
	}
	orders := func(name string) *types.Schema {
		return table(name,
			types.Column{Name: "oid", Type: types.KindInt},
			types.Column{Name: "cust_id", Type: types.KindInt},
			types.Column{Name: "amount", Type: types.KindFloat},
			types.Column{Name: "region", Type: types.KindString})
	}
	customers := table("c",
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "name", Type: types.KindString},
		types.Column{Name: "segment", Type: types.KindString})
	ints := func(vs ...int64) []types.Value {
		out := make([]types.Value, len(vs))
		for i, v := range vs {
			out[i] = types.NewInt(v)
		}
		return out
	}
	for _, s := range []struct {
		name   string
		sql    string
		params []types.Value
		schema *types.Schema
	}{
		{"pk_lookup", "SELECT oid, cust_id, amount, region FROM orders WHERE oid = ?", ints(17), orders("orders")},
		{"fk_agg", "SELECT COUNT(*), SUM(amount) FROM orders WHERE cust_id = ?", ints(3), orders("orders")},
		{"fk_join_top5", "SELECT c.name, o.oid, o.amount FROM customers c JOIN orders o ON c.id = o.cust_id WHERE c.id = ? ORDER BY o.amount DESC, o.oid LIMIT 5",
			ints(3), customers.Concat(orders("o"))},
		{"in_list", "SELECT oid, amount FROM orders WHERE oid IN (?, ?, ?, ?, ?, ?, ?, ?)", ints(1, 2, 3, 5, 8, 13, 21, 34), orders("orders")},
	} {
		b.Run(s.name, func(b *testing.B) {
			sel, err := sql.ParseSelect(s.sql, s.params...)
			if err != nil {
				b.Fatal(err)
			}
			var trees []expr.Expr
			for _, it := range sel.Items {
				trees = append(trees, it.Expr)
			}
			if j, ok := sel.From.(*sql.JoinExpr); ok {
				trees = append(trees, j.On)
			}
			trees = append(trees, sel.Where)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, e := range trees {
					if _, err := expr.Bind(e, s.schema); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
