package exec

import (
	"context"
	"errors"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gis/internal/catalog"
	"gis/internal/expr"
	"gis/internal/obs"
	"gis/internal/plan"
	"gis/internal/relstore"
	"gis/internal/source"
	"gis/internal/types"
)

// scriptIter yields rows, then fail (io.EOF when nil), and sleeps in
// Close, standing in for a remote cursor whose teardown is slow.
type scriptIter struct {
	rows       []types.Row
	fail       error
	closeDelay time.Duration
}

func (s *scriptIter) Next() (types.Row, error) {
	if len(s.rows) == 0 {
		if s.fail != nil {
			return nil, s.fail
		}
		return nil, io.EOF
	}
	r := s.rows[0]
	s.rows = s.rows[1:]
	return r, nil
}

func (s *scriptIter) Close() error {
	time.Sleep(s.closeDelay)
	return nil
}

func tracedSpan(name string) *obs.Span {
	_, sp := obs.StartSpan(obs.WithTrace(ctx, obs.NewTrace(name)), obs.SpanExec, name)
	return sp
}

// TestOpIterRecordsCloseLatency: teardown cost must reach the record even
// though the stream already hit EOF (and published once) before Close.
func TestOpIterRecordsCloseLatency(t *testing.T) {
	sp := tracedSpan("scan")
	it := &opIter{span: sp, in: &scriptIter{
		rows:       []types.Row{{types.NewInt(1), types.NewString("a")}},
		closeDelay: 5 * time.Millisecond,
	}}
	if rows, err := source.Drain(it); err != nil || len(rows) != 1 {
		t.Fatalf("drain = %d rows, %v", len(rows), err)
	}
	st := sp.Data().Stats
	if st == nil {
		t.Fatal("no record published")
	}
	if st.Rows != 1 || st.Bytes <= 0 {
		t.Errorf("rows/bytes = %d/%d, want 1/>0", st.Rows, st.Bytes)
	}
	if st.Close < 5*time.Millisecond {
		t.Errorf("Close = %v, want >= 5ms", st.Close)
	}
}

// TestAnnotateRendersCloseAndWire checks EXPLAIN ANALYZE's rendering of
// the record: executions of one node are summed, the estimate printed
// beside them as the trace tree prints it, zero-valued extras stay
// hidden, and a node with no record never executed.
func TestAnnotateRendersCloseAndWire(t *testing.T) {
	n := valuesNode(types.NewSchema(intCol("id")), []any{1})
	other := valuesNode(types.NewSchema(intCol("id")), []any{2})
	tr := obs.NewTrace("q")
	tctx := obs.WithTrace(ctx, tr)
	tctx, root := obs.StartSpan(tctx, obs.SpanQuery, "q")
	_, x1 := obs.StartSpan(tctx, obs.SpanExec, "n")
	x1.SetStats(&obs.OpStats{Op: n, Rows: 3, Bytes: 42, Open: 3 * time.Millisecond, Next: 2 * time.Millisecond, Close: 300 * time.Nanosecond})

	out := Annotate(tr)(n)
	if !strings.Contains(out, "rows=3") || !strings.Contains(out, "bytes=42") || !strings.Contains(out, "time=5ms") {
		t.Errorf("missing rows/bytes/time (open + next): %s", out)
	}
	if strings.Contains(out, "close=") || strings.Contains(out, "wire_rows=") || strings.Contains(out, "est=") {
		t.Errorf("extras that are zero (a close that rounds to it too) and an estimate nobody made should be hidden: %s", out)
	}
	if got := Annotate(tr)(other); got != " (never executed)" {
		t.Errorf("unexecuted node annotated %q", got)
	}

	xctx, x2 := obs.StartSpan(tctx, obs.SpanExec, "n again")
	x2.SetStats(&obs.OpStats{Op: n, EstRows: 4.6, HasEst: true, Rows: 2, Bytes: 8, Close: 7 * time.Millisecond})
	_, sh := obs.StartSpan(xctx, obs.SpanShip, "src.t")
	sh.SetStats(&obs.OpStats{Op: n, Rows: 100, Bytes: 9000})
	root.End()
	out = Annotate(tr)(n)
	for _, want := range []string{"rows=5 est=4 bytes=50", "close=7ms", "wire_rows=100 wire_bytes=9000"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q: %s", want, out)
		}
	}

	// Ship records and no exec record — a scan its join ran, chunk by
	// chunk: the wire half alone, not rows=0 beside it.
	for _, chunk := range []int64{12, 8} {
		_, sh := obs.StartSpan(tctx, obs.SpanShip, "src.t")
		sh.SetStats(&obs.OpStats{Op: other, Rows: chunk, Bytes: chunk * 10})
	}
	if got := Annotate(tr)(other); got != " (wire_rows=20 wire_bytes=200)" {
		t.Errorf("a scan with wire records only annotated %q", got)
	}
}

// slowSource answers every sub-query delay late: what a statement over it
// costs is spent in Execute, before any operator has a row to return.
type slowSource struct {
	source.Source
	delay time.Duration
}

func (s slowSource) Execute(ctx context.Context, q *source.Query) (source.RowIter, error) {
	time.Sleep(s.delay)
	return s.Source.Execute(ctx, q)
}

// TestAnalyzeTimeIsInclusive: a scan waits for its source, a join
// builds, an aggregate folds and a sort collects before any of them has
// a stream to return, so time= is what run took and what Next took:
// every operator over sources that answer 5 ms late reports at least
// 5 ms (the blocking ones used to report what handing over finished rows
// took). And the right scan of a key-shipped join, which the join runs
// itself, shows what crossed the wire and no rows=0 nobody measured.
func TestAnalyzeTimeIsInclusive(t *testing.T) {
	const delay = 5 * time.Millisecond
	cat := catalog.New()
	for _, tab := range []struct {
		src, name string
		schema    *types.Schema
		rows      []types.Row
	}{
		{"crm", "customers", types.NewSchema(intCol("id"), intCol("seg")),
			[]types.Row{{types.NewInt(1), types.NewInt(7)}, {types.NewInt(2), types.NewInt(8)}}},
		{"shop", "orders", types.NewSchema(intCol("oid"), intCol("cust_id")),
			[]types.Row{{types.NewInt(10), types.NewInt(1)}, {types.NewInt(11), types.NewInt(1)}, {types.NewInt(12), types.NewInt(2)}}},
	} {
		st := relstore.New(tab.src)
		if err := st.CreateTable(tab.name, tab.schema, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Insert(ctx, tab.name, tab.rows); err != nil {
			t.Fatal(err)
		}
		if err := cat.AddSource(slowSource{st, delay}); err != nil {
			t.Fatal(err)
		}
		if err := cat.DefineTable(tab.name, tab.schema); err != nil {
			t.Fatal(err)
		}
		if err := cat.MapSimple(ctx, tab.name, tab.src, tab.name); err != nil {
			t.Fatal(err)
		}
	}
	analyze := func(text string, strategy plan.Strategy) string {
		n := (&ownFed{cat: cat}).plan(t, text, func(o *plan.Options) { o.ForceStrategy = strategy })
		tr := obs.NewTrace(text)
		if _, err := Collect(obs.WithTrace(ctx, tr), n); err != nil {
			t.Fatal(err)
		}
		return plan.ExplainFunc(n, Annotate(tr))
	}

	const q = "SELECT c.seg, COUNT(*) FROM customers c JOIN orders o ON c.id = o.cust_id GROUP BY c.seg ORDER BY c.seg"
	out := analyze(q, plan.StrategyShipAll)
	for _, op := range []string{"Sort", "Aggregate", "Join", "FragScan crm", "FragScan shop"} {
		if !strings.Contains(out, op) {
			t.Fatalf("no %s in the plan:\n%s", op, out)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		_, after, _ := strings.Cut(line, " time=")
		spent, _, _ := strings.Cut(after, " ")
		if d, err := time.ParseDuration(strings.TrimSuffix(spent, ")")); err != nil || d < delay {
			t.Errorf("time=%s (%v), want at least the source's %v: %s", spent, err, delay, line)
		}
	}

	out = analyze(q, plan.StrategySemiJoin)
	_, right, _ := strings.Cut(out, "FragScan shop")
	if !strings.Contains(right, "(wire_rows=3 wire_bytes=") {
		t.Errorf("the key-shipped scan should show its wire half and nothing else:\n%s", out)
	}
}

func filterOverValues() *plan.Filter {
	in := valuesNode(types.NewSchema(intCol("id")), []any{1}, []any{2}, []any{3})
	pred := expr.NewBinary(expr.OpGt, expr.NewBoundColRef(0, types.KindInt, "id"), expr.NewConst(types.NewInt(0)))
	return &plan.Filter{Input: in, Pred: pred}
}

// TestRunUntracedInstallsNoWrapper: without a trace Run hands back the
// operator's own iterator; with one, the measuring wrapper.
func TestRunUntracedInstallsNoWrapper(t *testing.T) {
	f := filterOverValues()
	it, err := Run(ctx, f)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.(*filterIter); !ok {
		t.Errorf("untraced Run(Filter) = %T, want the operator's own *filterIter", it)
	}
	if rows, err := source.Drain(it); err != nil || len(rows) != 3 {
		t.Fatalf("drain = %d rows, %v", len(rows), err)
	}
	id := expr.NewBoundColRef(0, types.KindInt, "id")
	it, err = Run(ctx, &plan.Project{Input: f, Exprs: []expr.Expr{expr.NewBinary(expr.OpAdd, id, id)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.(*projectIter); !ok {
		t.Errorf("untraced Run(Project) = %T, want *projectIter", it)
	}
	it.Close()
	// A projection of every input column in place is not run at all.
	it, err = Run(ctx, &plan.Project{Input: f, Exprs: []expr.Expr{id}, Names: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.(*filterIter); !ok {
		t.Errorf("untraced Run(identity Project) = %T, want the input's *filterIter", it)
	}
	it.Close()

	it, err = Run(obs.WithTrace(ctx, obs.NewTrace("q")), f)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.(*opIter); !ok {
		t.Errorf("traced Run(Filter) = %T, want *opIter", it)
	}
	it.Close()
}

// TestDeadStreamKeepsItsRecord: a stream that dies mid-way still
// publishes what it measured up to there, beside the estimate.
func TestDeadStreamKeepsItsRecord(t *testing.T) {
	sp := tracedSpan("dying scan")
	dying := &opIter{span: sp, st: obs.OpStats{EstRows: 10000, HasEst: true}, in: &scriptIter{
		rows: []types.Row{{types.NewInt(1)}, {types.NewInt(2)}},
		fail: errors.New("source down"),
	}}
	if _, err := source.Drain(dying); err == nil {
		t.Fatal("dying stream drained cleanly")
	}
	if st := sp.Data().Stats; st == nil || st.Rows != 2 || !st.HasEst || st.EstRows != 10000 {
		t.Errorf("the dead stream's record = %+v; want its 2 rows against the estimate of 10000", st)
	}
}

// countingSource counts the sub-queries that reach a source.
type countingSource struct {
	source.Source
	executes *atomic.Int64
}

func (s countingSource) Execute(ctx context.Context, q *source.Query) (source.RowIter, error) {
	s.executes.Add(1)
	return s.Source.Execute(ctx, q)
}

// TestKeyShippedJoinSubQueriesPerFragment: the keys of the left side go
// to each right fragment in as few sub-queries as plan's semiJoinKeyLimit
// allows — one for the 40 keys of a left side the default planner ships
// (which used to go out 16 at a time, three sub-queries one after
// another), three for 2 500, which the semijoin has to be forced on —
// and only to the fragments whose partition predicate admits them: with
// the right side range-partitioned on the join key and every key in the
// first partition, the second is not asked at all.
func TestKeyShippedJoinSubQueriesPerFragment(t *testing.T) {
	for _, c := range []struct {
		keys  int64
		force plan.Strategy
		// split, when set, range-partitions facts: ids below it at f0,
		// the rest at f1, as the fragments' predicates say. Otherwise
		// even ids are at f0 and odd ones at f1, and neither says so.
		split int64
		want  [2]int64
	}{{40, plan.StrategyAuto, 0, [2]int64{1, 1}}, {2500, plan.StrategySemiJoin, 0, [2]int64{3, 3}}, {40, plan.StrategySemiJoin, 100, [2]int64{1, 0}}} {
		cat := catalog.New()
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		schema := types.NewSchema(types.Column{Name: "id", Type: types.KindInt}, types.Column{Name: "v", Type: types.KindInt})
		rows := make([]types.Row, c.keys)
		for i := range rows {
			rows[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 7))}
		}
		left := relstore.New("left")
		must(left.CreateTable("keys", schema, 0))
		_, err := left.Insert(ctx, "keys", rows)
		must(err)
		must(cat.AddSource(left))
		must(cat.DefineTable("keys", schema))
		must(cat.MapSimple(ctx, "keys", "left", "keys"))

		// facts: one row per key.
		must(cat.DefineTable("facts", schema))
		at := func(id int64) int64 { return id % 2 }
		wheres := [2]expr.Expr{}
		if c.split > 0 {
			at = func(id int64) int64 { return min(id/c.split, 1) }
			id, split := expr.NewColRef("", "id"), expr.NewConst(types.NewInt(c.split))
			wheres = [2]expr.Expr{expr.NewBinary(expr.OpLt, id, split), expr.NewBinary(expr.OpGe, id, split)}
		}
		var executes [2]atomic.Int64
		for i := range executes {
			st := relstore.New("f" + string(rune('0'+i)))
			must(st.CreateTable("facts", schema, 0))
			for _, r := range rows {
				if at(r[0].Int()) == int64(i) {
					_, err := st.Insert(ctx, "facts", []types.Row{r})
					must(err)
				}
			}
			must(cat.AddSource(countingSource{st, &executes[i]}))
			must(cat.MapFragment(ctx, "facts", &catalog.Fragment{Source: st.Name(), RemoteTable: "facts",
				Columns: []catalog.ColumnMapping{{RemoteCol: 0}, {RemoteCol: 1}}, Where: wheres[i]}))
		}

		n := (&ownFed{cat: cat}).plan(t, "SELECT k.id, f.v FROM keys k JOIN facts f ON k.id = f.id",
			func(o *plan.Options) { o.ForceStrategy = c.force })
		if text := plan.Explain(n); !strings.Contains(text, "strategy=semijoin") || strings.Count(text, "FragScan f") != 2 {
			t.Fatalf("%d keys: the plan does not ship keys to both fragments:\n%s", c.keys, text)
		}
		got, err := Collect(ctx, n)
		must(err)
		if int64(len(got)) != c.keys {
			t.Errorf("%d keys: %d rows joined", c.keys, len(got))
		}
		if e := [2]int64{executes[0].Load(), executes[1].Load()}; e != c.want {
			t.Errorf("%d keys, split %d: the fragments answered %v sub-queries, want %v", c.keys, c.split, e, c.want)
		}
	}
}
