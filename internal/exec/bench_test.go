package exec

import (
	"context"
	"io"
	"testing"

	"gis/internal/expr"
	"gis/internal/obs"
	"gis/internal/plan"
	"gis/internal/source"
	"gis/internal/types"
)

// benchExprs are the predicate and projection of benchPlan: id >= 0
// (true of every row) and the id column alone.
func benchExprs() (pred expr.Expr, proj []expr.Expr) {
	id := expr.NewBoundColRef(0, types.KindInt, "id")
	return expr.NewBinary(expr.OpGe, id, expr.NewConst(types.NewInt(0))), []expr.Expr{id}
}

// benchValues is a 10k-row Values node (a SliceIter once run) of
// (id, v = id mod 7).
func benchValues() *plan.Values {
	in := &plan.Values{Out: types.NewSchema(intCol("id"), intCol("v"))}
	for i := 0; i < 10000; i++ {
		in.Rows = append(in.Rows, []expr.Expr{
			expr.NewConst(types.NewInt(int64(i))), expr.NewConst(types.NewInt(int64(i % 7))),
		})
	}
	return in
}

// benchPlan is filter→project over benchValues: two streaming operators
// whose per-row work is small enough that what Run adds around them
// shows.
func benchPlan() plan.Node {
	pred, proj := benchExprs()
	return &plan.Project{Input: &plan.Filter{Input: benchValues(), Pred: pred}, Exprs: proj}
}

var benchRows int

func benchmarkRun(b *testing.B, ctx func() context.Context) {
	p := benchPlan()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := Run(ctx(), p)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			if _, err := it.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
			n++
		}
		it.Close()
		benchRows = n
	}
}

func BenchmarkRunUntraced(b *testing.B) {
	benchmarkRun(b, context.Background)
}

// BenchmarkRunTraced is the same plan with every operator measured: a
// span and the wrapper's two clock reads per Next, per operator.
func BenchmarkRunTraced(b *testing.B) {
	obs.DefaultFeedback().Reset()
	b.Cleanup(obs.DefaultFeedback().Reset)
	benchmarkRun(b, func() context.Context { return obs.WithTrace(context.Background(), obs.NewTrace("bench")) })
}

// benchJoinSide is n two-column rows (k = i mod 1 000, v = i).
func benchJoinSide(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i % 1000)), types.NewInt(int64(i))}
	}
	return rows
}

// benchJoin is an inner equi-join on k whose residual condition rejects
// every pair with an odd left v, so half the joined rows are carved and
// given back.
func benchJoin() *plan.Join {
	schema := types.NewSchema(intCol("k"), intCol("v"))
	j := equiJoin(plan.JoinInner, &plan.Values{Out: schema}, &plan.Values{Out: schema})
	j.Cond = expr.NewBinary(expr.OpAnd, j.Cond, expr.NewBinary(expr.OpEq,
		expr.NewBinary(expr.OpMod, expr.NewBoundColRef(1, types.KindInt, "v"), expr.NewConst(types.NewInt(2))),
		expr.NewConst(types.NewInt(0))))
	return j
}

// BenchmarkHashJoinProbe probes a 1 000-row build side with 10 000 left
// rows, one key-equal partner each. Both inputs are materialized
// beforehand: what is measured is the build and the probe.
func BenchmarkHashJoinProbe(b *testing.B) {
	left, right := benchJoinSide(10000), benchJoinSide(1000)
	j := benchJoin()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := runLocalJoinMaterialized(context.Background(), j, left, right)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for ; err == nil; n++ {
			_, err = it.Next()
		}
		if err != io.EOF || n-1 != 5000 {
			b.Fatalf("%d rows, %v", n-1, err)
		}
		it.Close()
	}
}

// BenchmarkAggregate groups benchValues' 10 000 rows by v (seven groups)
// under COUNT(*) and SUM(id). The Values input costs one allocation per
// row on either side of a comparison; what the operator adds is the
// rest.
func BenchmarkAggregate(b *testing.B) {
	id, v := expr.NewBoundColRef(0, types.KindInt, "id"), expr.NewBoundColRef(1, types.KindInt, "v")
	a := &plan.Aggregate{
		GroupBy: []expr.Expr{v},
		Aggs:    []plan.AggItem{{Kind: expr.AggCount}, {Kind: expr.AggSum, Arg: id}},
		Input:   benchValues(),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := Run(context.Background(), a)
		if err != nil {
			b.Fatal(err)
		}
		rows, err := source.Drain(it)
		if err != nil || len(rows) != 7 {
			b.Fatalf("%d groups, %v", len(rows), err)
		}
	}
}

// checkSlope fails when doubling the input from n to 2n rows adds more
// than n/32 allocations. Per-query set-up cancels out of the
// difference, so what is left is the per-row cost times n.
func checkSlope(t *testing.T, what string, n int, run func(n int)) {
	t.Helper()
	at := func(n int) float64 { return testing.AllocsPerRun(5, func() { run(n) }) }
	slope := at(2*n) - at(n)
	t.Logf("%s: %v more allocations for %d more rows", what, slope, n)
	if slope > float64(n)/32 {
		t.Errorf("%s allocates per row: %v more allocations for %d more rows (bound %d)", what, slope, n, n/32)
	}
}

// The streaming operators and the hash-join probe allocate per slab
// chunk (types.RowSlab: one per up to 127 rows), never per row. One
// stray allocation per row would put the slope at n.
func TestOperatorAllocsDoNotGrowPerRow(t *testing.T) {
	const n = 4096
	ctx := context.Background()
	drain := func(it source.RowIter, want int) {
		got := 0
		for {
			if _, err := it.Next(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			got++
		}
		if err := it.Close(); err != nil || got != want {
			t.Fatalf("%d rows, want %d (close: %v)", got, want, err)
		}
	}

	rows := benchJoinSide(2 * n)
	pred, proj := benchExprs()
	filterProject := func(n int) {
		drain(&projectIter{ctx: ctx, exprs: proj,
			in: &filterIter{ctx: ctx, in: source.SliceIter(rows[:n]), pred: pred}}, n)
	}
	checkSlope(t, "filter→project", n, filterProject)

	right, j := benchJoinSide(1000), benchJoin()
	probe := func(n int) {
		it, err := runLocalJoinMaterialized(ctx, j, rows[:n], right)
		if err != nil {
			t.Fatal(err)
		}
		drain(it, n/2)
	}
	checkSlope(t, "hash-join probe", n, probe)
}
