package sql

import (
	"testing"

	"gis/internal/types"
)

// parseShapes are the benchmark's point_remote statements, texts as
// bench/gen.go has them, each with as many parameters as it has marks.
var parseShapes = []struct {
	name, sql string
	params    int
}{
	{"pk_lookup", "SELECT oid, cust_id, amount, region FROM orders WHERE oid = ?", 1},
	{"fk_agg", "SELECT COUNT(*), SUM(amount) FROM orders WHERE cust_id = ?", 1},
	{"fk_join_top5", "SELECT c.name, o.oid, o.amount FROM customers c JOIN orders o ON c.id = o.cust_id WHERE c.id = ? ORDER BY o.amount DESC, o.oid LIMIT 5", 1},
	{"in_list", "SELECT oid, amount FROM orders WHERE oid IN (?, ?, ?, ?, ?, ?, ?, ?)", 8},
}

var pointRemoteStatements = func() []string {
	out := make([]string, len(parseShapes))
	for i, s := range parseShapes {
		out[i] = s.sql
	}
	return out
}()

// BenchmarkParse is the front end's rung: lex + parse of each
// point_remote statement. Read B/op and allocs/op.
func BenchmarkParse(b *testing.B) {
	for _, s := range parseShapes {
		params := make([]types.Value, s.params)
		for i := range params {
			params[i] = types.NewInt(int64(i))
		}
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Parse(s.sql, params...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
