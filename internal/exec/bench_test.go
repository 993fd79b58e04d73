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
