package exec

import (
	"context"
	"io"
	"testing"

	"gis/internal/expr"
	"gis/internal/obs"
	"gis/internal/plan"
	"gis/internal/types"
)

// benchPlan is filter→project over a 10k-row Values node (a SliceIter
// once run): two streaming operators whose per-row work is small enough
// that what Run adds around them shows.
func benchPlan() plan.Node {
	id := expr.NewBoundColRef(0, types.KindInt, "id")
	in := &plan.Values{Out: types.NewSchema(intCol("id"), intCol("v"))}
	for i := 0; i < 10000; i++ {
		in.Rows = append(in.Rows, []expr.Expr{
			expr.NewConst(types.NewInt(int64(i))), expr.NewConst(types.NewInt(int64(i % 7))),
		})
	}
	return &plan.Project{
		Input: &plan.Filter{Input: in, Pred: expr.NewBinary(expr.OpGe, id, expr.NewConst(types.NewInt(0)))},
		Exprs: []expr.Expr{id},
	}
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

// BenchmarkHashJoinProbe probes a 1 000-row build side with 10 000 left
// rows, one key-equal partner each; the residual condition rejects
// every other pair, so half the joined rows are carved and given back.
// Both inputs are materialized beforehand: what is measured is the
// build and the probe.
func BenchmarkHashJoinProbe(b *testing.B) {
	schema := types.NewSchema(intCol("k"), intCol("v"))
	side := func(n int) []types.Row {
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = types.Row{types.NewInt(int64(i % 1000)), types.NewInt(int64(i))}
		}
		return rows
	}
	left, right := side(10000), side(1000)
	j := equiJoin(plan.JoinInner, &plan.Values{Out: schema}, &plan.Values{Out: schema})
	j.Cond = expr.NewBinary(expr.OpAnd, j.Cond, expr.NewBinary(expr.OpEq,
		expr.NewBinary(expr.OpMod, expr.NewBoundColRef(1, types.KindInt, "v"), expr.NewConst(types.NewInt(2))),
		expr.NewConst(types.NewInt(0))))
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
