package relstore

import (
	"fmt"
	"io"
	"testing"

	"gis/internal/expr"
	"gis/internal/source"
	"gis/internal/types"
)

// The rungs below run the sub-queries the repository benchmark's
// workloads push to a relstore (bench/gen.go), on tables of the same
// shape, so a rung and a workload row can be read against each other.
// Read B/op and allocs/op; ns/op is not repeatable in the sandbox.

var benchRegions = []string{"north", "south", "east", "west", "mid", "nw", "se", "sw"}

// benchOrders is an n-row orders table — (oid, cust_id, amount, region),
// oid the primary key, cust_id indexed with fanout rows per customer,
// amount spread evenly over [0, 1000), eight regions.
func benchOrders(tb testing.TB, n, fanout int) *Store {
	tb.Helper()
	s := New("bench")
	schema := types.NewSchema(
		types.Column{Name: "oid", Type: types.KindInt},
		types.Column{Name: "cust_id", Type: types.KindInt},
		types.Column{Name: "amount", Type: types.KindFloat},
		types.Column{Name: "region", Type: types.KindString},
	)
	if err := s.CreateTable("orders", schema, 0); err != nil {
		tb.Fatal(err)
	}
	if err := s.CreateIndex("orders", 1); err != nil {
		tb.Fatal(err)
	}
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % (n / fanout))),
			types.NewFloat(float64(i*7919%1000) + 0.5),
			types.NewString(benchRegions[i%len(benchRegions)]),
		}
	}
	if _, err := s.Insert(ctx, "orders", rows); err != nil {
		tb.Fatal(err)
	}
	return s
}

var (
	benchOid    = expr.NewBoundColRef(0, types.KindInt, "oid")
	benchCust   = expr.NewBoundColRef(1, types.KindInt, "cust_id")
	benchAmount = expr.NewBoundColRef(2, types.KindFloat, "amount")
)

func benchCmp(op expr.BinOp, col expr.Expr, v types.Value) expr.Expr {
	return expr.NewBinary(op, col, expr.NewConst(v))
}

// execCount runs q and drains it, returning the number of rows.
func execCount(tb testing.TB, s *Store, q *source.Query) int {
	return execCountAs(tb, s, q, false)
}

// execCountAs is execCount by a consumer that keeps its rows or, lent,
// by one that asks to be lent them.
func execCountAs(tb testing.TB, s *Store, q *source.Query, lent bool) int {
	it, err := s.Execute(ctx, q)
	if err != nil {
		tb.Fatal(err)
	}
	if lent {
		source.Lend(it)
	}
	n := 0
	for ; err == nil; n++ {
		_, err = it.Next()
	}
	if err != io.EOF {
		tb.Fatal(err)
	}
	return n - 1
}

func benchExecute(b *testing.B, s *Store, q *source.Query, want int) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := execCount(b, s, q); got != want {
			b.Fatalf("%d rows, want %d", got, want)
		}
	}
}

// rangeProject is ship_remote's range_ship: a range of the unindexed
// half-open interval [lo, hi) of oid, every column projected.
func rangeProject(lo, hi int) *source.Query {
	q := source.NewScan("orders")
	q.Filter = expr.NewBinary(expr.OpAnd,
		benchCmp(expr.OpGe, benchOid, types.NewInt(int64(lo))),
		benchCmp(expr.OpLt, benchOid, types.NewInt(int64(hi))))
	q.Columns = []int{0, 1, 2, 3}
	return q
}

// BenchmarkExecuteRangeProject: 4 000 of 10 000 rows, four columns, read
// by a consumer that keeps them (the mediator's Drain) and by one that
// is lent them (the component server encoding each into a frame).
func BenchmarkExecuteRangeProject(b *testing.B) {
	s, q := benchOrders(b, 10000, 50), rangeProject(3000, 7000)
	b.Run("kept", func(b *testing.B) { benchExecute(b, s, q, 4000) })
	b.Run("lent", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := execCountAs(b, s, q, true); got != 4000 {
				b.Fatalf("%d rows, want 4000", got)
			}
		}
	})
}

// groupAgg is wan_fanout's fan_agg8 as one fragment sees it: half the
// rows pass the filter and fold into eight groups.
func groupAgg() *source.Query {
	q := source.NewScan("orders")
	q.Filter = benchCmp(expr.OpLt, benchAmount, types.NewFloat(500))
	q.GroupBy = []int{3}
	q.Aggs = []source.AggSpec{{Kind: expr.AggCount, Col: -1, Star: true}, {Kind: expr.AggSum, Col: 2}}
	return q
}

// BenchmarkExecuteGroupAgg at the fragment's 5 000 rows and at twice
// that: allocs/op must not differ.
func BenchmarkExecuteGroupAgg(b *testing.B) {
	for _, n := range []int{5000, 10000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			benchExecute(b, benchOrders(b, n, 50), groupAgg(), len(benchRegions))
		})
	}
}

// globalAgg is update_2pc's sum_check: every row, one group.
func globalAgg() *source.Query {
	q := source.NewScan("orders")
	q.Aggs = []source.AggSpec{{Kind: expr.AggSum, Col: 2}, {Kind: expr.AggCount, Col: -1, Star: true}}
	return q
}

func BenchmarkExecuteGlobalAgg(b *testing.B) {
	for _, n := range []int{2000, 4000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			benchExecute(b, benchOrders(b, n, 50), globalAgg(), 1)
		})
	}
}

// BenchmarkExecuteIndexLookup is point_remote's two access paths: one
// row by primary key, and the 50 rows of one customer by the foreign-key
// index with two columns projected.
func BenchmarkExecuteIndexLookup(b *testing.B) {
	s := benchOrders(b, 10000, 50)
	b.Run("primary_key", func(b *testing.B) {
		q := source.NewScan("orders")
		q.Filter = benchCmp(expr.OpEq, benchOid, types.NewInt(4321))
		q.Columns = []int{0, 1, 2, 3}
		benchExecute(b, s, q, 1)
	})
	b.Run("foreign_key_50", func(b *testing.B) {
		q := source.NewScan("orders")
		q.Filter = benchCmp(expr.OpEq, benchCust, types.NewInt(77))
		q.Columns = []int{0, 2}
		benchExecute(b, s, q, 50)
	})
}

// openScan opens q, reads one row and closes.
func openScan(tb testing.TB, s *Store, q *source.Query) {
	it, err := s.Execute(ctx, q)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := it.Next(); err != nil {
		tb.Fatal(err)
	}
	it.Close()
}

// benchWrite rewrites one row by primary key b.N times — update_2pc's
// update_1p as the store sees it — each time after a full scan was
// opened, read one row of and closed, or with no scan at all. The update
// itself reads every row (writes do not use the index), so read B/op and
// allocs/op: what a scan costs the write that follows it is one chunk
// and the directory, whatever the table's size.
func benchWrite(b *testing.B, afterScan bool) {
	full := source.NewScan("orders")
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			s := benchOrders(b, n, 50)
			one := benchCmp(expr.OpEq, benchOid, types.NewInt(int64(n/2)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if afterScan {
					openScan(b, s, full)
				}
				updateOne(b, s, one)
			}
		})
	}
}

func BenchmarkWriteNoScan(b *testing.B)    { benchWrite(b, false) }
func BenchmarkWriteAfterScan(b *testing.B) { benchWrite(b, true) }
