package exec

import (
	"context"
	"runtime"
	"testing"

	"gis/internal/catalog"
	"gis/internal/plan"
	"gis/internal/source"
	"gis/internal/types"
)

// sliceSource serves one table of rows it already holds, handed out as
// they are: draining it allocates nothing a row, so what Collect
// allocates over it is the slice of row headers it keeps.
type sliceSource struct {
	info *source.TableInfo
	rows []types.Row
}

func (s *sliceSource) Name() string                             { return "held" }
func (s *sliceSource) Tables(context.Context) ([]string, error) { return []string{"t"}, nil }
func (s *sliceSource) Capabilities() source.Capabilities        { return source.Capabilities{} }
func (s *sliceSource) TableInfo(context.Context, string) (*source.TableInfo, error) {
	return s.info, nil
}
func (s *sliceSource) Execute(context.Context, *source.Query) (source.RowIter, error) {
	return source.SliceIter(s.rows), nil
}

// TestCollectHeaderBytes: Collect keeps a result the plan estimates
// about right in one slice sized from the estimate — a 4 000-row scan
// estimated at 4 001 rows costs at most 1.15 row headers a row (1.11),
// where growing the slice as rows arrive cost 2.5. make layout prints
// the figure.
func TestCollectHeaderBytes(t *testing.T) {
	const n, est = 4000, 4001
	schema := types.NewSchema(intCol("k"))
	rows := make([]types.Row, n)
	flat := make([]types.Value, n)
	for i := range rows {
		flat[i] = types.NewInt(int64(i))
		rows[i] = flat[i : i+1 : i+1]
	}
	cat := catalog.New()
	src := &sliceSource{info: &source.TableInfo{Schema: schema, RowCount: est}, rows: rows}
	if err := cat.AddSource(src); err != nil {
		t.Fatal(err)
	}
	if err := cat.DefineTable("t", schema); err != nil {
		t.Fatal(err)
	}
	if err := cat.MapSimple(ctx, "t", "held", "t"); err != nil {
		t.Fatal(err)
	}
	tab, err := cat.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Optimize(ctx, &plan.GlobalScan{Table: tab}, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(*plan.FragScan); !ok || plan.EstimateRows(p) != est {
		t.Fatalf("want a fragment scan estimated at %d rows:\n%s", est, plan.Explain(p))
	}
	// The least of five runs: whatever else the runtime allocates
	// meanwhile only adds.
	bytes := ^uint64(0)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := Collect(ctx, p)
		runtime.ReadMemStats(&after)
		if err != nil || len(got) != n {
			t.Fatalf("Collect: %d rows, %v", len(got), err)
		}
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	const header = 24 // a types.Row slice header
	t.Logf("Collect of %d rows estimated at %d: %d B, %.1f B of row headers a kept row (one header is %d B)", n, est, bytes, float64(bytes)/n, header)
	if limit := 1.15 * n * header; float64(bytes) > limit {
		t.Errorf("Collect of %d rows estimated at %d allocates %d B; want at most %.0f", n, est, bytes, limit)
	}
}
