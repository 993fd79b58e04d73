package exec

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"gis/internal/docstore"
	"gis/internal/expr"
	"gis/internal/filestore"
	"gis/internal/kvstore"
	"gis/internal/obs"
	"gis/internal/plan"
	"gis/internal/relstore"
	"gis/internal/source"
	"gis/internal/types"
)

// keyedValues is a Values node of n rows (id, id % 7), id = 0…n-1,
// whose estimate, its row count, is exact.
func keyedValues(n int) *plan.Values {
	v := &plan.Values{Out: types.NewSchema(intCol("id"), intCol("m")), Rows: make([][]expr.Expr, n)}
	for i := range v.Rows {
		v.Rows[i] = []expr.Expr{expr.NewConst(types.NewInt(int64(i))), expr.NewConst(types.NewInt(int64(i % 7)))}
	}
	return v
}

// timesTen projects column 0 of in and column 0 times ten, w columns in
// all (the rest repeat the product).
func timesTen(in plan.Node, w int) *plan.Project {
	p := &plan.Project{Input: in, Exprs: make([]expr.Expr, w), Names: make([]string, w)}
	for i := range w {
		p.Exprs[i] = expr.NewBinary(expr.OpMul, expr.NewBoundColRef(0, types.KindInt, "id"), expr.NewConst(types.NewInt(10)))
		p.Names[i] = "x"
	}
	p.Exprs[0] = expr.NewBoundColRef(0, types.KindInt, "id")
	return p
}

// TestKeptOutputIsOneBlock: Collect tells the stage that builds the rows
// it keeps how many the plan estimates (source.Use), and that stage
// carves them from one block: a Project's or a Join's kept rows, and a
// Project's under a Limit, which forwards the count, estimated exactly,
// cost the same objects at 4 000 rows as at 1 000, within 2, where a
// stream of unknown length is cut into a chunk per 48 rows past its
// first 64 — traced too, where the count crosses every operator's
// measuring wrapper. Each count is the least of a few readings
// (source.Allocations): a GC that lands in a reading adds objects the
// runtime allocates, its tiny-object block started afresh and its
// unique-handle cleanup. make layout prints the counts.
func TestKeptOutputIsOneBlock(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func(n int) plan.Node
	}{
		{"project", func(n int) plan.Node { return timesTen(keyedValues(n), 2) }},
		{"join", func(n int) plan.Node { return equiJoin(plan.JoinInner, keyedValues(n), keyedValues(n)) }},
		// A limit passes the count on to the Project under it.
		{"limit", func(n int) plan.Node { return &plan.Limit{N: int64(n), Input: timesTen(keyedValues(n+5), 2)} }},
	} {
		for _, traced := range []bool{false, true} {
			var objects [2]uint64
			for i, n := range []int{1000, 4000} {
				p := c.build(n)
				if est := plan.EstimateRows(p); est != float64(n) {
					t.Fatalf("%s of %d rows is estimated at %v, want exactly", c.name, n, est)
				}
				objects[i], _ = source.Allocations(func() {
					ctx := ctx
					if traced {
						ctx = obs.WithTrace(ctx, obs.NewTrace("q"))
					}
					if rows, err := Collect(ctx, p); err != nil || len(rows) != n {
						t.Fatalf("%s: %d rows, %v; want %d", c.name, len(rows), err, n)
					}
				})
			}
			t.Logf("%-7s kept (traced %-5v): %d objects at 1 000 rows, %d at 4 000", c.name, traced, objects[0], objects[1])
			if max(objects[0], objects[1])-min(objects[0], objects[1]) > 2 {
				t.Errorf("%s (traced %v): keeping 1 000 rows costs %d objects and 4 000 rows %d; want the same within 2", c.name, traced, objects[0], objects[1])
			}
		}
	}
}

// TestKeptEstimateOffTenfold: a kept result the plan over-estimates
// tenfold sets aside the block it was told of, and never more than
// types.MaxReserveBytes of it, beside its row headers (at most
// maxRowsHint of them); one it under-estimates — semijoin_sel's
// customers, 19 estimated against 80 — carves the rest by the tail rule.
// Both return every row as it was built.
func TestKeptEstimateOffTenfold(t *testing.T) {
	const header = 24 // a types.Row slice header
	for _, c := range []struct {
		n, est, w int
	}{
		{2000, 20000, 8},
		{1000, 10000, 2},
		{80, 19, 3},
	} {
		rows := make([]types.Row, c.n)
		for i := range rows {
			rows[i] = types.Row{types.NewInt(int64(i))}
		}
		p := timesTen(heldScan(t, types.NewSchema(intCol("id")), rows, int64(c.est)), c.w)
		bytes := ^uint64(0)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, err := Collect(ctx, p)
			runtime.ReadMemStats(&after)
			if err != nil || len(got) != c.n {
				t.Fatalf("%d rows estimated at %d: Collect returned %d rows, %v", c.n, c.est, len(got), err)
			}
			for i, r := range got {
				if len(r) != c.w || r[0].Int() != int64(i) || r[c.w-1].Int() != int64(10*i) {
					t.Fatalf("%d rows estimated at %d: row %d = %v", c.n, c.est, i, r)
				}
			}
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("%4d rows of %d columns estimated at %5d: %d B", c.n, c.w, c.est, bytes)
		if limit := uint64(types.MaxReserveBytes + maxRowsHint*header + 4096); bytes > limit {
			t.Errorf("%d rows of %d columns estimated at %d: Collect allocates %d B, want at most %d", c.n, c.w, c.est, bytes, limit)
		}
	}
}

// keptStores holds n rows (oid, cust_id, amount, region) in each of the
// four store kinds, as table t.
func keptStores(t *testing.T, n int) []source.Source {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	schema := types.NewSchema(intCol("oid"), intCol("cust_id"),
		types.Column{Name: "amount", Type: types.KindFloat}, strCol("region"))
	rows := make([]types.Row, n)
	var csv strings.Builder
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 40)), types.NewFloat(float64(i%500) + 0.5), types.NewString([]string{"north", "south"}[i%2])}
		fmt.Fprintf(&csv, "%d,%d,%g,%s\n", i, i%40, rows[i][2].Float(), rows[i][3].Str())
	}
	rel := relstore.New("rel")
	must(rel.CreateTable("t", schema))
	kv := kvstore.New("kv")
	must(kv.CreateBucket("t", schema, 0))
	doc := docstore.New("doc")
	must(doc.CreateCollection("t", []docstore.FieldMap{
		{Column: schema.Columns[0], Path: "oid"}, {Column: schema.Columns[1], Path: "cust.id"},
		{Column: schema.Columns[2], Path: "amount"}, {Column: schema.Columns[3], Path: "region"},
	}))
	for _, w := range []source.Writer{rel, kv, doc} {
		_, err := w.Insert(ctx, "t", rows)
		must(err)
	}
	file := filestore.New("file")
	must(file.RegisterData("t", csv.String(), schema))
	return []source.Source{rel, kv, doc, file}
}

// TestKeptStoreScanIsOneBlock: a store's scan told how many rows its
// consumer keeps (source.Use) carves them from one block, as Collect's
// stages do: keeping 4 000 rows costs the objects 1 000 do, within 2.
func TestKeptStoreScanIsOneBlock(t *testing.T) {
	var objects [2][]float64
	for i, n := range []int{1000, 4000} {
		kept := make([]types.Row, n)
		for _, src := range keptStores(t, n) {
			objects[i] = append(objects[i], testing.AllocsPerRun(5, func() {
				it, err := src.Execute(ctx, source.NewScan("t"))
				if err != nil {
					t.Fatal(err)
				}
				source.Use(it, n)
				for j := range kept {
					if kept[j], err = it.Next(); err != nil {
						t.Fatalf("%s: row %d: %v", src.Name(), j, err)
					}
				}
				if _, err := it.Next(); err != io.EOF {
					t.Fatalf("%s: after %d rows: %v, want EOF", src.Name(), n, err)
				}
				it.Close()
			}))
			if r := kept[n-1]; r[0].Int() != int64(n-1) || r[3].Str() != []string{"north", "south"}[(n-1)%2] {
				t.Fatalf("%s: the last row kept = %v", src.Name(), r)
			}
		}
	}
	for k, name := range []string{"relstore", "kvstore", "docstore", "filestore"} {
		a, b := objects[0][k], objects[1][k]
		t.Logf("%-9s kept scan: %.0f objects at 1 000 rows, %.0f at 4 000", name, a, b)
		if math.Abs(b-a) > 2 {
			t.Errorf("%s: a kept scan of 1 000 rows costs %.0f objects and of 4 000 rows %.0f; want the same within 2", name, a, b)
		}
	}
}
