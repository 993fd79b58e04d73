package sql

import (
	"testing"

	"gis/internal/types"
)

// parseShapes are the benchmark's point_remote statements, texts as
// bench/gen.go has them, each with as many parameters as it has marks,
// and the objects lexing and parsing it may allocate (TestParseAllocations).
var parseShapes = []struct {
	name, sql string
	params    int
	ceiling   float64
}{
	{"pk_lookup", "SELECT oid, cust_id, amount, region FROM orders WHERE oid = ?", 1, 13},
	{"fk_agg", "SELECT COUNT(*), SUM(amount) FROM orders WHERE cust_id = ?", 1, 11},
	{"fk_join_top5", "SELECT c.name, o.oid, o.amount FROM customers c JOIN orders o ON c.id = o.cust_id WHERE c.id = ? ORDER BY o.amount DESC, o.oid LIMIT 5", 1, 20},
	{"in_list", "SELECT oid, amount FROM orders WHERE oid IN (?, ?, ?, ?, ?, ?, ?, ?)", 8, 11},
}

// shapeParams are the parameters a parseShapes statement is parsed with.
func shapeParams(n int) []types.Value {
	params := make([]types.Value, n)
	for i := range params {
		params[i] = types.NewInt(int64(i))
	}
	return params
}

// TestParseAllocations holds lexing and parsing each point_remote
// statement to a ceiling 10% above what it measures, 11 / 10 / 18 / 10:
// the token slice, the statement, each list at its length, each node,
// and an IN list's constants in one block (13 / 11 / 21 / 21 while a
// list grew by append and each constant was its own object).
func TestParseAllocations(t *testing.T) {
	for _, s := range parseShapes {
		params := shapeParams(s.params)
		got := testing.AllocsPerRun(100, func() {
			if _, err := Parse(s.sql, params...); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%-13s %3.0f allocations (ceiling %.0f)", s.name, got, s.ceiling)
		if got > s.ceiling {
			t.Errorf("%s: parsing allocates %.0f objects, ceiling %.0f", s.name, got, s.ceiling)
		}
	}
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
		params := shapeParams(s.params)
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
