package exec

import (
	"context"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"gis/internal/catalog"
	"gis/internal/expr"
	"gis/internal/obs"
	"gis/internal/plan"
	"gis/internal/relstore"
	"gis/internal/source"
	"gis/internal/sql"
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

// benchNonEquiJoin is an inner join on L.v < R.v: no equi keys, so every
// right row is a candidate for every left row.
func benchNonEquiJoin() *plan.Join {
	schema := types.NewSchema(intCol("k"), intCol("v"))
	return &plan.Join{Kind: plan.JoinInner, L: &plan.Values{Out: schema}, R: &plan.Values{Out: schema},
		Cond: expr.NewBinary(expr.OpLt, expr.NewBoundColRef(1, types.KindInt, "v"), expr.NewBoundColRef(3, types.KindInt, "v"))}
}

// benchmarkJoin drains joinRows over materialized inputs: what is
// measured is the build, if the join has one, and the probe loop.
func benchmarkJoin(b *testing.B, j *plan.Join, left, right []types.Row, want int) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := joinRows(context.Background(), j, source.SliceIter(left), right, account{})
		var err error
		n := 0
		for ; err == nil; n++ {
			_, err = it.Next()
		}
		if err != io.EOF || n-1 != want {
			b.Fatalf("%d rows, %v", n-1, err)
		}
		it.Close()
	}
}

// BenchmarkHashJoinProbe probes a 1 000-row build side with 10 000 left
// rows, one key-equal partner each: the loop's candidates are a bucket.
func BenchmarkHashJoinProbe(b *testing.B) {
	benchmarkJoin(b, benchJoin(), benchJoinSide(10000), benchJoinSide(1000), 5000)
}

// BenchmarkNestedLoopJoin is the same loop with every right row a
// candidate: 10 000 left rows against 100 right rows, a million pairs
// carved and all but 4 950 given back.
func BenchmarkNestedLoopJoin(b *testing.B) {
	benchmarkJoin(b, benchNonEquiJoin(), benchJoinSide(10000), benchJoinSide(100), 4950)
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

// benchSort orders benchValues' rows — n of them — by v descending, then
// id: seven values of the first key, so the second decides most
// comparisons. top bounds it as pushTopK would under a LIMIT.
func benchSort(n int, top int64) *plan.Sort {
	in := benchValues()
	for len(in.Rows) < n {
		in.Rows = append(in.Rows, in.Rows[:min(n-len(in.Rows), len(in.Rows))]...)
	}
	return &plan.Sort{Input: in, Top: top, Keys: []plan.SortKey{
		{E: expr.NewBoundColRef(1, types.KindInt, "v"), Desc: true}, {E: expr.NewBoundColRef(0, types.KindInt, "id")},
	}}
}

func benchmarkCollect(b *testing.B, p plan.Node, want int) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := Collect(context.Background(), p)
		if err != nil || len(rows) != want {
			b.Fatalf("%d rows, %v", len(rows), err)
		}
	}
}

// BenchmarkSort is the full sort of 10 000 rows by two keys. The Values
// input costs the same two allocations on either side of a comparison.
func BenchmarkSort(b *testing.B) {
	benchmarkCollect(b, benchSort(10000, 0), 10000)
}

// BenchmarkTopK is the same sort under LIMIT 10, over 10 000 and over
// 20 000 rows: B/op grows with the input's literals, allocs/op does not.
func BenchmarkTopK(b *testing.B) {
	for _, n := range []int{10000, 20000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			benchmarkCollect(b, &plan.Limit{N: 10, Input: benchSort(n, 10)}, 10)
		})
	}
}

// BenchmarkUnion merges benchValues' rows cut into eight inputs of 1 250,
// one after another and all at once. The inputs cost two allocations
// each; what the union adds is its channel and a goroutine per fetcher.
func BenchmarkUnion(b *testing.B) {
	in := benchValues()
	inputs := make([]plan.Node, 8)
	for i := range inputs {
		inputs[i] = &plan.Values{Out: in.Out, Rows: in.Rows[i*1250 : (i+1)*1250]}
	}
	for _, parallel := range []bool{false, true} {
		name := "sequential"
		if parallel {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			benchmarkCollect(b, &plan.Union{All: true, Parallel: parallel, Inputs: inputs}, 10000)
		})
	}
}

// BenchmarkKeyShippedJoin ships the 200 keys of a local table to a
// four-fragment union of in-process relstores (1 000 rows each, the keys
// spread over all four) and joins the 200 rows that come back: what is
// measured is the left side's scan, the fan-out of the keys, the four
// sub-queries and the join.
func BenchmarkKeyShippedJoin(b *testing.B) {
	must := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	cat := catalog.New()
	schema := types.NewSchema(intCol("id"), intCol("v"))
	left := relstore.New("left")
	must(left.CreateTable("keys", schema, 0))
	keys := make([]types.Row, 200)
	for i := range keys {
		keys[i] = types.Row{types.NewInt(int64(i * 20)), types.NewInt(int64(i))}
	}
	_, err := left.Insert(context.Background(), "keys", keys)
	must(err)
	must(cat.AddSource(left))
	must(cat.DefineTable("keys", schema))
	must(cat.MapSimple(context.Background(), "keys", "left", "keys"))
	must(cat.DefineTable("facts", schema))
	for f := 0; f < 4; f++ {
		st := relstore.New("f" + strconv.Itoa(f))
		must(st.CreateTable("facts", schema, 0))
		rows := make([]types.Row, 1000) // ids f, f+4, f+8, ...
		for i := range rows {
			rows[i] = types.Row{types.NewInt(int64(4*i + f)), types.NewInt(int64(i))}
		}
		_, err := st.Insert(context.Background(), "facts", rows)
		must(err)
		must(cat.AddSource(st))
		must(cat.MapSimple(context.Background(), "facts", st.Name(), "facts"))
	}
	sel, err := sql.ParseSelect("SELECT k.v, f.v FROM keys k JOIN facts f ON k.id = f.id")
	must(err)
	logical, err := plan.NewBuilder(cat).BuildSelect(sel)
	must(err)
	opts := plan.DefaultOptions()
	opts.ForceStrategy, opts.JoinOrder = plan.StrategySemiJoin, plan.OrderSyntactic
	p, err := plan.Optimize(context.Background(), logical, cat, opts)
	must(err)
	if text := plan.Explain(p); !strings.Contains(text, "strategy=semijoin") || strings.Count(text, "FragScan f") != 4 {
		b.Fatalf("not a key-shipped join over four fragments:\n%s", text)
	}
	benchmarkCollect(b, p, 200)
}

// refSource is the reference source: it holds rows, advertises caps,
// refuses a sub-query that asks for more (Query.Check) and answers one
// that does not with the reference evaluator (source.ApplyResidual).
// The zero vector can only scan whole tables — no filter, no
// projection — so the mediator compensates for both. It builds every
// row it hands out, from a slab that lends when asked, as a wrapper
// that parses records does.
type refSource struct {
	caps source.Capabilities
	info *source.TableInfo
	rows []types.Row
}

func (s *refSource) Name() string                             { return "ref" }
func (s *refSource) Tables(context.Context) ([]string, error) { return []string{"readings"}, nil }
func (s *refSource) Capabilities() source.Capabilities        { return s.caps }
func (s *refSource) TableInfo(context.Context, string) (*source.TableInfo, error) {
	return s.info, nil
}
func (s *refSource) Execute(_ context.Context, q *source.Query) (source.RowIter, error) {
	if err := q.Check(s.caps, s.info); err != nil {
		return nil, err
	}
	rows, err := source.ApplyResidual(s.rows, q)
	if err != nil {
		return nil, err
	}
	return &refIter{rows: rows}, nil
}

type refIter struct {
	rows []types.Row
	slab types.RowSlab
}

func (it *refIter) Use(n int) { it.slab.Use(n) }

func (it *refIter) Next() (types.Row, error) {
	if len(it.rows) == 0 {
		return nil, io.EOF
	}
	r := it.slab.Next(len(it.rows[0]))
	copy(r, it.rows[0])
	it.rows = it.rows[1:]
	return r, nil
}

func (it *refIter) Close() error { return nil }

// compensatedScanPlan plans, over n rows behind a scan-only refSource
// whose table stores cents and region codes,
//
//	SELECT region, COUNT(*), SUM(amount) FROM readings
//	WHERE amount > 2.5 AND region <> 'west' GROUP BY region
//
// — hetero_local's mediated aggregate: all of a fragment scan's
// compensation (two columns read out of whole rows, a unit-converted and
// a value-mapped one translated, both conjuncts kept) under an aggregate
// that folds each row as it arrives. Three quarters of a third of the
// rows pass.
func compensatedScanPlan(tb testing.TB, n int) plan.Node {
	tb.Helper()
	must := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
	}
	remote := types.NewSchema(intCol("oid"), intCol("cust_id"),
		types.Column{Name: "cents", Type: types.KindFloat}, strCol("rg"), strCol("note"))
	src := &refSource{info: &source.TableInfo{Schema: remote, RowCount: int64(n)}, rows: make([]types.Row, n)}
	for i := range src.rows {
		src.rows[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 97)),
			types.NewFloat(float64(i*7919%1000) + 0.5), types.NewString("NSEW"[i%4 : i%4+1]), types.NewString("n/a")}
	}
	cat := catalog.New()
	must(cat.AddSource(src))
	must(cat.DefineTable("readings", types.NewSchema(intCol("oid"), intCol("cust_id"),
		types.Column{Name: "amount", Type: types.KindFloat}, strCol("region"))))
	must(cat.MapFragment(context.Background(), "readings", &catalog.Fragment{Source: "ref", RemoteTable: "readings",
		Columns: []catalog.ColumnMapping{{RemoteCol: 0}, {RemoteCol: 1}, {RemoteCol: 2, Scale: 0.01},
			{RemoteCol: 3, ValueMap: map[string]string{"N": "north", "S": "south", "E": "east", "W": "west"}}}}))
	sel, err := sql.ParseSelect("SELECT region, COUNT(*), SUM(amount) FROM readings WHERE amount > 2.5 AND region <> 'west' GROUP BY region")
	must(err)
	logical, err := plan.NewBuilder(cat).BuildSelect(sel)
	must(err)
	p, err := plan.Optimize(context.Background(), logical, cat, nil)
	must(err)
	return p
}

// BenchmarkFragScanCompensate runs compensatedScanPlan over 4 096 rows.
// Read B/op and allocs/op.
func BenchmarkFragScanCompensate(b *testing.B) {
	p := compensatedScanPlan(b, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := Collect(context.Background(), p)
		if err != nil || len(rows) != 3 {
			b.Fatalf("%d groups, %v", len(rows), err)
		}
	}
}

// underLimit puts a Limit of n rows between compensatedScanPlan's
// aggregate and its scan: one that passes every row on.
func underLimit(p plan.Node, n int) plan.Node {
	proj := *p.(*plan.Project)
	agg := *proj.Input.(*plan.Aggregate)
	agg.Input = &plan.Limit{N: int64(n), Input: agg.Input}
	proj.Input = &agg
	return &proj
}

// No stage of a compensated scan under an aggregate keeps a row, so
// each lends its producer one — through a Limit, which passes the hint
// on, and under a trace, where the hint crosses every operator's
// measuring wrapper at run time: the statement allocates the same over
// 2 048 rows as over 4 096.
func TestCompensatedScanAllocsDoNotGrowWithRows(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func(n int) plan.Node
	}{
		{"scan → translate → filter → project → aggregate", func(n int) plan.Node { return compensatedScanPlan(t, n) }},
		{"scan → translate → filter → project → limit → aggregate", func(n int) plan.Node { return underLimit(compensatedScanPlan(t, n), n) }},
	} {
		for _, traced := range []bool{false, true} {
			// Under -race a traced run now and then makes a stray
			// allocation, which can only add to the count: each size is
			// held to the fewest of several samples.
			at := func(n int) float64 {
				p := c.build(n)
				least := math.Inf(1)
				for range 5 {
					least = min(least, testing.AllocsPerRun(5, func() {
						ctx := context.Background()
						if traced {
							ctx = obs.WithTrace(ctx, obs.NewTrace("q"))
						}
						if rows, err := Collect(ctx, p); err != nil || len(rows) != 3 {
							t.Fatalf("%d groups, %v", len(rows), err)
						}
					}))
				}
				return least
			}
			a, b := at(2048), at(4096)
			t.Logf("%s (traced %v): %v allocations over 2048 rows, %v over 4096", c.name, traced, a, b)
			if a != b {
				t.Errorf("%s (traced %v): %v allocations over 2048 rows, %v over 4096", c.name, traced, a, b)
			}
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

// The streaming operators and the join's probe loop — candidates from a
// bucket, candidates all of the right side — allocate per slab chunk
// (types.RowSlab: one per up to 127 rows), never per row. One stray
// allocation per row would put the slope at n.
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
		drain(joinRows(ctx, j, source.SliceIter(rows[:n]), right, account{}), n/2)
	}
	checkSlope(t, "hash-join probe", n, probe)

	// Four candidates a left row: three at or below every left v but the
	// first few, carved and given back, and one above them all.
	right, j = append(rows[:3:3], rows[2*n-1]), benchNonEquiJoin()
	nonEqui := func(n int) {
		want := 0
		for _, l := range rows[:n] {
			for _, r := range right {
				if l[1].Int() < r[1].Int() {
					want++
				}
			}
		}
		drain(joinRows(ctx, j, source.SliceIter(rows[:n]), right, account{}), want)
	}
	checkSlope(t, "non-equi probe", n, nonEqui)

	// A Sort under a Limit keeps what the Limit reads, not its input: no
	// row, no key tuple and no array that grows with the rows it sees.
	// Its input builds rows and lends them: a projection over literals,
	// which are carved from one array however many they are.
	literals := benchValues()
	values := func(n int) *plan.Values { return &plan.Values{Out: literals.Out, Rows: literals.Rows[:n]} }
	id, v := expr.NewBoundColRef(0, types.KindInt, "id"), expr.NewBoundColRef(1, types.KindInt, "v")
	lender := func(n int) plan.Node {
		return &plan.Project{Input: values(n), Exprs: []expr.Expr{v, id}, Names: []string{"v", "id"}}
	}
	topK := func(n int) {
		it, err := Run(ctx, &plan.Limit{N: 10, Offset: 5, Input: &plan.Sort{Top: 15, Input: lender(n),
			Keys: []plan.SortKey{{E: expr.NewBoundColRef(0, types.KindInt, "v"), Desc: true}, {E: expr.NewBoundColRef(1, types.KindInt, "id")}}}})
		if err != nil {
			t.Fatal(err)
		}
		drain(it, 10)
	}
	// Under -race a run now and then makes a stray allocation, which can
	// only add to the count: each size is held to the fewest of several
	// samples.
	fewest := func(n int) float64 {
		least := math.Inf(1)
		for range 5 {
			least = min(least, testing.AllocsPerRun(5, func() { topK(n) }))
		}
		return least
	}
	if a, b := fewest(n), fewest(2*n); a != b {
		t.Errorf("limit→sort: %v allocations over %d rows, %v over %d", a, n, b, 2*n)
	}

	checkSlope(t, "values", n, func(n int) {
		it, err := Run(ctx, values(n))
		if err != nil {
			t.Fatal(err)
		}
		drain(it, n)
	})

	// A union hands each row through its channel as it was delivered.
	for _, parallel := range []bool{false, true} {
		checkSlope(t, fmt.Sprintf("union (parallel %v)", parallel), n, func(n int) {
			u := &plan.Union{All: true, Parallel: parallel, Inputs: []plan.Node{values(n / 2),
				&plan.Values{Out: literals.Out, Rows: literals.Rows[n/2 : n]}}}
			it, err := Run(ctx, u)
			if err != nil {
				t.Fatal(err)
			}
			drain(it, n)
		})
	}
}
